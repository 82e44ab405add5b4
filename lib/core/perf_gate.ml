(* Perf reports from the analytical cost model + the regression gate.
   See perf_gate.mli for the contract. *)

module Cost_report = Unit_machine.Cost_report
module Json = Unit_obs.Json

let schema = "unit-perf-report"
let version = 1

type kernel = {
  k_id : int;
  k_workload : string;
  k_isa : string;
  k_cycles : float;
  k_report : Cost_report.t;
}

type report = {
  pg_target : string;
  pg_kernels : kernel list;
}

(* ---------- generation ---------- *)

let generate target =
  let kernels = ref [] in
  Array.iteri
    (fun i wl ->
      let ex = Explain.conv target wl in
      match ex.Explain.ex_chosen with
      | None -> ()
      | Some isa ->
        List.iter
          (fun (e : Explain.entry) ->
            if String.equal e.Explain.ex_isa isa then
              match e.Explain.ex_verdict with
              | Explain.Accepted { vd_cycles; vd_report; _ } ->
                kernels :=
                  { k_id = i;
                    k_workload = ex.Explain.ex_workload;
                    k_isa = isa;
                    k_cycles = vd_cycles;
                    k_report = vd_report
                  }
                  :: !kernels
              | _ -> ())
          ex.Explain.ex_entries)
    Unit_models.Table1.workloads;
  { pg_target = Explain.target_to_string target; pg_kernels = List.rev !kernels }

(* ---------- (de)serialization ---------- *)

let kernel_to_json k =
  Json.Obj
    [ ("id", Json.Num (float_of_int k.k_id));
      ("workload", Json.Str k.k_workload);
      ("isa", Json.Str k.k_isa);
      ("cycles", Json.Num k.k_cycles);
      ("report", Cost_report.to_json k.k_report)
    ]

let to_json r =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("v", Json.Num (float_of_int version));
      ("target", Json.Str r.pg_target);
      ("kernels", Json.Arr (List.map kernel_to_json r.pg_kernels))
    ]

let ( let* ) r f = Result.bind r f

let rec map_ok f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_ok f xs in
    Ok (y :: ys)

let kernel_of_json j =
  let* id = Json.int_field "id" j in
  let* () = if id >= 0 then Ok () else Error "field id is negative" in
  let* k_workload = Json.str_field "workload" j in
  let* k_isa = Json.str_field "isa" j in
  let* k_cycles = Json.num_field "cycles" j in
  let* () = if k_cycles >= 0.0 then Ok () else Error "field cycles is negative" in
  let* k_report =
    match Json.member "report" j with
    | None -> Error "field report missing"
    | Some rep -> Cost_report.of_json rep
  in
  Ok { k_id = id; k_workload; k_isa; k_cycles; k_report }

let of_json j =
  let* s = Json.str_field "schema" j in
  let* () =
    if String.equal s schema then Ok ()
    else Error (Printf.sprintf "schema is %S (want %S)" s schema)
  in
  let* v = Json.int_field "v" j in
  let* () =
    if v = version then Ok ()
    else Error (Printf.sprintf "perf-report v%d (want v%d)" v version)
  in
  let* pg_target = Json.str_field "target" j in
  let* kernels = Json.list_field "kernels" j in
  let* pg_kernels = map_ok kernel_of_json kernels in
  Ok { pg_target; pg_kernels }

let write path r =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n')

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | content -> Json.parse content

let read path =
  let* j = read_json path in
  of_json j

(* ---------- diffing ---------- *)

type delta = {
  d_id : int;
  d_workload : string;
  d_old : float;
  d_new : float;
  d_pct : float;
}

type diff = {
  df_regressions : delta list;
  df_improvements : delta list;
  df_unchanged : int;
  df_added : int;
}

let diff_reports ~tolerance ~old_report ~new_report =
  let news = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace news k.k_id k) new_report.pg_kernels;
  let regressions = ref [] in
  let improvements = ref [] in
  let unchanged = ref 0 in
  List.iter
    (fun old_k ->
      match Hashtbl.find_opt news old_k.k_id with
      | None ->
        (* coverage loss: a kernel the baseline could compile no longer
           appears — always a regression, whatever the tolerance *)
        regressions :=
          { d_id = old_k.k_id;
            d_workload = old_k.k_workload;
            d_old = old_k.k_cycles;
            d_new = -1.0;
            d_pct = infinity
          }
          :: !regressions
      | Some new_k ->
        Hashtbl.remove news old_k.k_id;
        let pct =
          if old_k.k_cycles > 0.0 then
            (new_k.k_cycles -. old_k.k_cycles) /. old_k.k_cycles *. 100.0
          else if new_k.k_cycles > 0.0 then infinity
          else 0.0
        in
        let d =
          { d_id = old_k.k_id;
            d_workload = old_k.k_workload;
            d_old = old_k.k_cycles;
            d_new = new_k.k_cycles;
            d_pct = pct
          }
        in
        if pct > tolerance then regressions := d :: !regressions
        else if pct < -.tolerance then improvements := d :: !improvements
        else incr unchanged)
    old_report.pg_kernels;
  { df_regressions = List.rev !regressions;
    df_improvements = List.rev !improvements;
    df_unchanged = !unchanged;
    df_added = Hashtbl.length news
  }

let pp_delta ppf d =
  if d.d_new < 0.0 then
    Format.fprintf ppf "  #%-2d %-44s %12.0f -> missing" d.d_id d.d_workload
      d.d_old
  else
    Format.fprintf ppf "  #%-2d %-44s %12.0f -> %12.0f  (%+.2f%%)" d.d_id
      d.d_workload d.d_old d.d_new d.d_pct

let pp_diff ~tolerance ppf df =
  Format.fprintf ppf "@[<v>";
  if df.df_regressions <> [] then begin
    Format.fprintf ppf "REGRESSIONS (tolerance %.1f%%):@," tolerance;
    List.iter (fun d -> Format.fprintf ppf "%a@," pp_delta d) df.df_regressions
  end;
  if df.df_improvements <> [] then begin
    Format.fprintf ppf "improvements:@,";
    List.iter (fun d -> Format.fprintf ppf "%a@," pp_delta d) df.df_improvements
  end;
  Format.fprintf ppf
    "%d regression%s, %d improvement%s, %d within tolerance, %d added@]"
    (List.length df.df_regressions)
    (if List.length df.df_regressions = 1 then "" else "s")
    (List.length df.df_improvements)
    (if List.length df.df_improvements = 1 then "" else "s")
    df.df_unchanged df.df_added

(* ---------- schema lint for checked-in benchmark files ---------- *)

(* Every BENCH freeze but the perf report is one entry of
   [bench_schemas]: the fields it must carry and the gates its numbers
   must pass, checked in order by [check] (the first failure is the
   error).  A message reads the document's numbers, so it can quote
   the values that failed. *)

type message = (string -> float) -> string

type gate =
  | Positive of string list * message  (** each field > 0 *)
  | Range of string * float * float * message  (** lo <= field <= hi *)
  | Is_true of string * message
  | Ordered of string list * message  (** a <= b <= ... *)
  | Ratio of string * (string * string) * [ `Abs of float | `Rel of float ] * message
      (** field = a/b within the tolerance (`Rel: a fraction of field) *)
  | Share of (string * string) * float * message  (** a/b <= k *)

type shape = {
  strings : string list;
  numbers : string list;
  bools : string list;
  gates : gate list;
}

type bench_schema = {
  tag : string;
  doc : shape;
  rows : (string * string * shape) option;
      (** array, key field (prefixes a row's messages), row shape *)
  keyed : (string * gate * string) list;
      (** the row keyed [k] must exist (else the message) and pass the gate *)
  summary : (string -> float) -> int -> string;  (** numbers, row count *)
}

let shape ?(strings = []) ?(numbers = []) ?(bools = []) gates =
  { strings; numbers; bools; gates }

let text s _ = s
let quote fmt f v = Printf.sprintf fmt (v f)

let bench_schemas =
  let monotone v =
    Printf.sprintf
      "engine timings not monotone (want emitted <= compiled <= tree-walker, got \
       %.6f / %.6f / %.6f)"
      (v "emitted_s") (v "compiled_s") (v "tree_walker_s")
  in
  let latency v =
    Printf.sprintf "latency percentiles implausible (p50 %.1f, p99 %.1f)" (v "p50_us")
      (v "p99_us")
  in
  let exact v =
    Printf.sprintf
      "flight-recorder percentiles implausible (exact p50 %.1f, exact p99 %.1f)"
      (v "exact_p50_us") (v "exact_p99_us")
  in
  [ { tag = "unit-outcomes";
      doc = shape [];
      rows =
        Some
          ( "outcomes",
            "id",
            shape ~strings:[ "id"; "metric" ] ~numbers:[ "paper"; "measured" ] [] );
      keyed = [];
      summary = (fun _ n -> Printf.sprintf "paper-outcomes file, %d outcomes" n)
    };
    (* [Memplan.bench_rows]: every arena must beat naive allocation and
       hold the peak, and the headline resnet18 plan must reach <= 60% of
       the naive peak *)
    { tag = "unit-memplan";
      doc = shape [];
      rows =
        Some
          ( "models",
            "model",
            shape ~strings:[ "model" ]
              ~numbers:
                [ "naive_bytes"; "peak_bytes"; "arena_bytes"; "reuse_ratio"; "slots" ]
              [ Positive
                  ([ "naive_bytes"; "arena_bytes" ], text "byte counts must be positive");
                Ratio ("reuse_ratio", ("arena_bytes", "naive_bytes"), `Abs 0.001,
                       text "reuse_ratio does not match arena/naive");
                Ordered ([ "arena_bytes"; "naive_bytes" ],
                         text "planned arena exceeds naive allocation");
                Ordered ([ "peak_bytes"; "arena_bytes" ],
                         text "peak live bytes exceed the planned arena")
              ] );
      keyed =
        [ ( "resnet18",
            Share (("arena_bytes", "naive_bytes"), 0.60, fun v ->
                Printf.sprintf "planned arena is %.1f%% of naive (gate: <= 60%%)"
                  (v "arena_bytes" /. v "naive_bytes" *. 100.0)),
            "resnet18 row missing (the 60% gate has nothing to check)" )
        ];
      summary = (fun _ n -> Printf.sprintf "memory-plan benchmark, %d models" n)
    };
    (* BENCH_emit.json: monotone engines (a native kernel slower than
       the closure engine means the emitter regressed), >= 3x emitted
       over closures, and on the emitted engine the tuned tensorized
       kernel no slower than the scalar reference — ratios, so they hold
       on other hosts.  [compiled_tensorized_s] is recorded, not gated. *)
    { tag = "unit-emit";
      doc =
        shape ~strings:[ "workload" ]
          ~numbers:
            [ "macs"; "tree_walker_s"; "compiled_s"; "emitted_s"; "speedup_vs_compiled";
              "compiled_tensorized_s"; "emitted_tensorized_s"; "tensorized_vs_scalar" ]
          [ Positive ([ "macs" ], text "field macs is not positive");
            Positive ([ "tree_walker_s"; "compiled_s"; "emitted_s" ],
                      text "engine timings must be positive");
            Ordered ([ "emitted_s"; "compiled_s"; "tree_walker_s" ], monotone);
            Ratio ("speedup_vs_compiled", ("compiled_s", "emitted_s"), `Rel 0.01,
                   text "speedup_vs_compiled does not match compiled_s/emitted_s");
            Range ("speedup_vs_compiled", 3.0, infinity,
                   quote
                     "emitted engine is only %.2fx over the closure engine (gate: >= 3x)"
                     "speedup_vs_compiled");
            Positive ([ "emitted_tensorized_s" ],
                      text "field emitted_tensorized_s is not positive");
            Ratio
              ( "tensorized_vs_scalar",
                ("emitted_tensorized_s", "emitted_s"),
                `Rel 0.01,
                text "tensorized_vs_scalar does not match emitted_tensorized_s/emitted_s" );
            Range ("tensorized_vs_scalar", neg_infinity, 1.0,
                   quote
                     "tensorized kernel takes %.2fx the scalar reference's time (gate: \
                      <= 1.0)"
                     "tensorized_vs_scalar")
          ];
      rows = None;
      keyed = [];
      summary =
        (fun v _ ->
          Printf.sprintf
            "emitted-engine benchmark, %.1fx over closure, tensorized %.2fx scalar"
            (v "speedup_vs_compiled") (v "tensorized_vs_scalar"))
    };
    (* BENCH_serve.json: a real soak (>= 2000 requests over >= 4
       domains), zero duplicate tuner sweeps (coalescing + single-flight
       did their job), responses bit-identical to direct pipeline calls,
       and sane percentiles, client-side and over the flight recorder's
       window *)
    { tag = "unit-serve";
      doc =
        shape
          ~numbers:
            [ "requests"; "domains"; "distinct_workloads"; "duplicate_tunes"; "coalesced";
              "p50_us"; "p99_us"; "exact_p50_us"; "exact_p99_us" ]
          ~bools:[ "bit_identical" ]
          [ Range ("requests", 2000.0, infinity,
                   quote "soak covered only %.0f requests (gate: >= 2000)" "requests");
            Range ("domains", 4.0, infinity,
                   quote "soak used only %.0f domains (gate: >= 4)" "domains");
            Positive
              ([ "distinct_workloads" ], text "field distinct_workloads is not positive");
            Range ("duplicate_tunes", 0.0, 0.0,
                   quote "%.0f duplicate tuner sweep(s) — coalescing/single-flight failed"
                     "duplicate_tunes");
            Ordered ([ "coalesced"; "requests" ], fun v ->
                Printf.sprintf "%.0f coalesced requests out of %.0f served" (v "coalesced")
                  (v "requests"));
            Is_true
              ("bit_identical", text "daemon responses diverged from direct pipeline calls");
            Positive ([ "p50_us" ], latency);
            Ordered ([ "p50_us"; "p99_us" ], latency);
            Positive ([ "exact_p50_us" ], exact);
            Ordered ([ "exact_p50_us"; "exact_p99_us" ], exact)
          ];
      rows = None;
      keyed = [];
      summary =
        (fun v _ ->
          Printf.sprintf "serve soak benchmark, %.0f requests, p50 %.0f us, p99 %.0f us"
            (v "requests") (v "p50_us") (v "p99_us"))
    }
  ]

(* NaN — failing every gate — when a gate names a field its shape does
   not require *)
let value j name =
  Option.value ~default:nan (Option.bind (Json.member name j) Json.to_num)

let check_gate ~prefix j gate =
  let v = value j in
  let rec sorted = function a :: (b :: _ as rest) -> a <= b && sorted rest | _ -> true in
  let holds, message =
    match gate with
    | Positive (fs, m) -> (List.for_all (fun f -> v f > 0.0) fs, m)
    | Range (f, lo, hi, m) -> (lo <= v f && v f <= hi, m)
    | Is_true (f, m) -> (Json.member f j = Some (Json.Bool true), m)
    | Ordered (fs, m) -> (sorted (List.map v fs), m)
    | Ratio (f, (a, b), tol, m) ->
      let tol = match tol with `Abs t -> t | `Rel t -> t *. v f in
      (Float.abs (v f -. (v a /. v b)) <= tol, m)
    | Share ((a, b), k, m) -> (v a /. v b <= k, m)
  in
  if holds then Ok () else Error (prefix ^ message v)

let check_shape ~prefix shape j =
  let* _ = map_ok (fun f -> Json.str_field f j) shape.strings in
  let* _ = map_ok (fun f -> Json.num_field f j) shape.numbers in
  let* _ = map_ok (fun f -> Json.bool_field f j) shape.bools in
  map_ok (check_gate ~prefix j) shape.gates

let check schema j =
  let* _ = check_shape ~prefix:"" schema.doc j in
  let* rows, key =
    match schema.rows with
    | None -> Ok ([], fun _ -> "")
    | Some (array, key, row) ->
      let key r = Result.value ~default:"" (Json.str_field key r) in
      let* rows = Json.list_field array j in
      let* _ = map_ok (fun r -> check_shape ~prefix:(key r ^ ": ") row r) rows in
      Ok (rows, key)
  in
  let* _ =
    map_ok
      (fun (k, gate, missing) ->
        match List.find_opt (fun r -> String.equal (key r) k) rows with
        | None -> Error missing
        | Some r -> check_gate ~prefix:(k ^ ": ") r gate)
      schema.keyed
  in
  Ok (schema.summary (value j) (List.length rows))

let validate_file path =
  let* j = read_json path in
  let tag = Option.bind (Json.member "schema" j) Json.to_str in
  match List.find_opt (fun s -> tag = Some s.tag) bench_schemas with
  | Some s -> check s j
  | None when tag = Some schema ->
    let* r = of_json j in
    Ok
      (Printf.sprintf "perf report, target %s, %d kernels" r.pg_target
         (List.length r.pg_kernels))
  | None ->
    Error
      (Printf.sprintf "%s (known tags: %s)"
         (match tag with
          | Some t -> Printf.sprintf "unknown schema tag %S" t
          | None -> "no schema tag")
         (String.concat ", " (schema :: List.map (fun s -> s.tag) bench_schemas)))
