(* Structured cycle attribution: where a modelled kernel's cycles go.
   The components are an exact partition of the total (see the .mli
   invariant); [make] computes the total as the sum so the invariant
   holds by construction. *)

module Json = Unit_obs.Json

type bound =
  | Compute_bound
  | Memory_bound

let bound_to_string = function
  | Compute_bound -> "compute"
  | Memory_bound -> "memory"

let bound_of_string = function
  | "compute" -> Some Compute_bound
  | "memory" -> Some Memory_bound
  | _ -> None

type t = {
  cr_total : float;
  cr_compute : float;
  cr_stall : float;
  cr_icache : float;
  cr_fork_join : float;
  cr_memory : float;
  cr_intensity : float;
  cr_ridge : float;
  cr_bound : bound;
}

let make ~compute ~stall ~icache ~fork_join ~memory ~intensity ~ridge =
  let clamp x = Float.max 0.0 x in
  let compute = clamp compute
  and stall = clamp stall
  and icache = clamp icache
  and fork_join = clamp fork_join
  and memory = clamp memory in
  { cr_total = compute +. stall +. icache +. fork_join +. memory;
    cr_compute = compute;
    cr_stall = stall;
    cr_icache = icache;
    cr_fork_join = fork_join;
    cr_memory = memory;
    cr_intensity = intensity;
    cr_ridge = ridge;
    cr_bound = (if intensity >= ridge then Compute_bound else Memory_bound)
  }

let components r =
  [ ("compute", r.cr_compute);
    ("stall", r.cr_stall);
    ("icache", r.cr_icache);
    ("fork_join", r.cr_fork_join);
    ("memory", r.cr_memory)
  ]

(* ---------- sinks ---------- *)

let to_json r =
  Json.Obj
    [ ("total", Json.Num r.cr_total);
      ("compute", Json.Num r.cr_compute);
      ("stall", Json.Num r.cr_stall);
      ("icache", Json.Num r.cr_icache);
      ("fork_join", Json.Num r.cr_fork_join);
      ("memory", Json.Num r.cr_memory);
      ("intensity", Json.Num r.cr_intensity);
      ("ridge", Json.Num r.cr_ridge);
      ("bound", Json.Str (bound_to_string r.cr_bound))
    ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let num name =
    let* x = Json.num_field name j in
    if x >= 0.0 || name = "intensity" then Ok x
    else Error (Printf.sprintf "report field %s is negative" name)
  in
  let* total = num "total" in
  let* compute = num "compute" in
  let* stall = num "stall" in
  let* icache = num "icache" in
  let* fork_join = num "fork_join" in
  let* memory = num "memory" in
  let* intensity = num "intensity" in
  let* ridge = num "ridge" in
  let* bound =
    let* s = Json.str_field "bound" j in
    match bound_of_string s with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "report field bound: unknown value %s" s)
  in
  let sum = compute +. stall +. icache +. fork_join +. memory in
  if Float.abs (sum -. total) > 1e-6 *. Float.max 1.0 total then
    Error "report components do not sum to the total"
  else
    Ok
      { cr_total = total; cr_compute = compute; cr_stall = stall;
        cr_icache = icache; cr_fork_join = fork_join; cr_memory = memory;
        cr_intensity = intensity; cr_ridge = ridge; cr_bound = bound
      }

let pct r x = if r.cr_total <= 0.0 then 0.0 else 100.0 *. x /. r.cr_total

let pp ppf r =
  Format.fprintf ppf
    "@[<v>total %.0f cycles:@,\
    \  compute   %12.0f  (%5.1f%%)@,\
    \  stall     %12.0f  (%5.1f%%)@,\
    \  icache    %12.0f  (%5.1f%%)@,\
    \  fork/join %12.0f  (%5.1f%%)@,\
    \  memory    %12.0f  (%5.1f%%)@,\
    roofline: %.2f MACs/byte vs ridge %.2f -> %s-bound@]"
    r.cr_total r.cr_compute (pct r r.cr_compute) r.cr_stall (pct r r.cr_stall)
    r.cr_icache (pct r r.cr_icache) r.cr_fork_join (pct r r.cr_fork_join)
    r.cr_memory (pct r r.cr_memory) r.cr_intensity r.cr_ridge
    (bound_to_string r.cr_bound)
