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

let str name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %s missing or not a string" name)

let num name j =
  match Option.bind (Json.member name j) Json.to_num with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %s missing or not a number" name)

let kernel_of_json j =
  let* id =
    match Option.bind (Json.member "id" j) Json.to_int with
    | Some i when i >= 0 -> Ok i
    | Some _ -> Error "field id is negative"
    | None -> Error "field id missing or not an integer"
  in
  let* k_workload = str "workload" j in
  let* k_isa = str "isa" j in
  let* k_cycles = num "cycles" j in
  let* () = if k_cycles >= 0.0 then Ok () else Error "field cycles is negative" in
  let* k_report =
    match Json.member "report" j with
    | None -> Error "field report missing"
    | Some rep -> Cost_report.of_json rep
  in
  Ok { k_id = id; k_workload; k_isa; k_cycles; k_report }

let of_json j =
  let* s = str "schema" j in
  let* () =
    if String.equal s schema then Ok ()
    else Error (Printf.sprintf "schema is %S (want %S)" s schema)
  in
  let* v =
    match Option.bind (Json.member "v" j) Json.to_int with
    | Some v -> Ok v
    | None -> Error "field v missing or not an integer"
  in
  let* () =
    if v = version then Ok ()
    else Error (Printf.sprintf "perf-report v%d (want v%d)" v version)
  in
  let* pg_target = str "target" j in
  let* kernels =
    match Option.bind (Json.member "kernels" j) Json.to_list with
    | Some ks -> Ok ks
    | None -> Error "field kernels missing or not an array"
  in
  let* pg_kernels =
    List.fold_left
      (fun acc k ->
        let* acc = acc in
        let* k = kernel_of_json k in
        Ok (k :: acc))
      (Ok []) kernels
  in
  Ok { pg_target; pg_kernels = List.rev pg_kernels }

let write path r =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n')

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read path =
  match read_file path with
  | exception Sys_error m -> Error m
  | content ->
    let* j = Json.parse content in
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

let validate_outcomes j =
  match Option.bind (Json.member "outcomes" j) Json.to_list with
  | None -> Error "field outcomes missing or not an array"
  | Some rows ->
    let* n =
      List.fold_left
        (fun acc row ->
          let* n = acc in
          let* _ = str "id" row in
          let* _ = str "metric" row in
          let* _ = num "paper" row in
          let* _ = num "measured" row in
          Ok (n + 1))
        (Ok 0) rows
    in
    Ok (Printf.sprintf "paper-outcomes file, %d outcomes" n)

let validate_interp j =
  let* _ = str "workload" j in
  let* macs = num "macs" j in
  let* () = if macs > 0.0 then Ok () else Error "field macs is not positive" in
  let* _ = num "tree_walker_s" j in
  let* _ = num "compiled_s" j in
  let* _ = num "speedup" j in
  Ok "interpreter benchmark file"

(* The memory-plan freeze ([Memplan.bench_rows]).  Beyond shape checks,
   this gates on the plan's substance: every arena must beat naive
   allocation, and the headline resnet18 plan must reach <= 60% of the
   naive peak — a regressed planner fails the build here, not in review. *)
let validate_memplan j =
  let* rows =
    match Option.bind (Json.member "models" j) Json.to_list with
    | Some rows -> Ok rows
    | None -> Error "field models missing or not an array"
  in
  let* n =
    List.fold_left
      (fun acc row ->
        let* n = acc in
        let* model = str "model" row in
        let* naive = num "naive_bytes" row in
        let* _peak = num "peak_bytes" row in
        let* arena = num "arena_bytes" row in
        let* ratio = num "reuse_ratio" row in
        let* _slots = num "slots" row in
        let* () =
          if naive > 0.0 && arena > 0.0 then Ok ()
          else Error (model ^ ": byte counts must be positive")
        in
        let* () =
          if Float.abs (ratio -. (arena /. naive)) <= 0.001 then Ok ()
          else Error (model ^ ": reuse_ratio does not match arena/naive")
        in
        let* () =
          if arena <= naive then Ok ()
          else Error (model ^ ": planned arena exceeds naive allocation")
        in
        let* () =
          if String.equal model "resnet18" && arena > 0.60 *. naive then
            Error
              (Printf.sprintf
                 "resnet18: planned arena is %.1f%% of naive (gate: <= 60%%)"
                 (arena /. naive *. 100.0))
          else Ok ()
        in
        Ok (n + 1))
      (Ok 0) rows
  in
  let* () =
    if List.exists (fun row -> str "model" row = Ok "resnet18") rows then Ok ()
    else Error "resnet18 row missing (the 60% gate has nothing to check)"
  in
  Ok (Printf.sprintf "memory-plan benchmark, %d models" n)

(* The emitted-engine freeze (BENCH_emit.json).  Gates on substance, not
   just shape: the three engines must be monotone (emitted <= compiled <=
   tree-walker — a native kernel slower than the closure engine means the
   emitter regressed), the emitted engine must hold a >= 3x margin
   over the closure engine on the headline resnet18 conv workload, and
   on the emitted engine the tuned tensorized kernel must take no longer
   than the scalar reference — a ratio, so it holds on other hosts. *)
let validate_emit j =
  let* _ = str "workload" j in
  let* macs = num "macs" j in
  let* () = if macs > 0.0 then Ok () else Error "field macs is not positive" in
  let* tw = num "tree_walker_s" j in
  let* c = num "compiled_s" j in
  let* e = num "emitted_s" j in
  let* ratio = num "speedup_vs_compiled" j in
  let* () =
    if tw > 0.0 && c > 0.0 && e > 0.0 then Ok ()
    else Error "engine timings must be positive"
  in
  let* () =
    if e <= c && c <= tw then Ok ()
    else
      Error
        (Printf.sprintf
           "engine timings not monotone (want emitted <= compiled <= \
            tree-walker, got %.6f / %.6f / %.6f)"
           e c tw)
  in
  let* () =
    if Float.abs (ratio -. (c /. e)) <= 0.01 *. ratio then Ok ()
    else Error "speedup_vs_compiled does not match compiled_s/emitted_s"
  in
  let* () =
    if ratio >= 3.0 then Ok ()
    else
      Error
        (Printf.sprintf
           "emitted engine is only %.2fx over the closure engine (gate: >= 3x)"
           ratio)
  in
  let* t = num "emitted_tensorized_s" j in
  let* tv = num "tensorized_vs_scalar" j in
  let* () = if t > 0.0 then Ok () else Error "engine timings must be positive" in
  let* () =
    if Float.abs (tv -. (t /. e)) <= 0.01 *. tv then Ok ()
    else Error "tensorized_vs_scalar does not match emitted_tensorized_s/emitted_s"
  in
  let* () =
    if tv <= 1.0 then Ok ()
    else
      Error
        (Printf.sprintf
           "tensorized kernel takes %.2fx the scalar reference's time (gate: <= 1.0)"
           tv)
  in
  Ok
    (Printf.sprintf "emitted-engine benchmark, %.1fx over closure, tensorized %.2fx scalar"
       ratio tv)

(* The daemon soak freeze (BENCH_serve.json).  The substance gates mirror
   the ISSUE acceptance bar: a real soak (>= 2000 requests over >= 4
   domains), zero duplicate tuner sweeps (coalescing + single-flight did
   their job), responses bit-identical to direct pipeline calls, and
   sane latency percentiles. *)
let validate_serve j =
  let bool_field name =
    match Json.member name j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "field %s missing or not a bool" name)
  in
  let* requests = num "requests" j in
  let* domains = num "domains" j in
  let* distinct = num "distinct_workloads" j in
  let* duplicates = num "duplicate_tunes" j in
  let* _coalesced = num "coalesced" j in
  let* identical = bool_field "bit_identical" in
  let* p50 = num "p50_us" j in
  let* p99 = num "p99_us" j in
  let* exact_p50 = num "exact_p50_us" j in
  let* exact_p99 = num "exact_p99_us" j in
  let* () =
    if requests >= 2000.0 then Ok ()
    else
      Error
        (Printf.sprintf "soak covered only %.0f requests (gate: >= 2000)"
           requests)
  in
  let* () =
    if domains >= 4.0 then Ok ()
    else Error (Printf.sprintf "soak used only %.0f domains (gate: >= 4)" domains)
  in
  let* () =
    if distinct > 0.0 then Ok ()
    else Error "field distinct_workloads is not positive"
  in
  let* () =
    if duplicates = 0.0 then Ok ()
    else
      Error
        (Printf.sprintf
           "%.0f duplicate tuner sweep(s) — coalescing/single-flight failed"
           duplicates)
  in
  let* () =
    if identical then Ok ()
    else Error "daemon responses diverged from direct pipeline calls"
  in
  let* () =
    if p50 > 0.0 && p50 <= p99 then Ok ()
    else
      Error
        (Printf.sprintf "latency percentiles implausible (p50 %.1f, p99 %.1f)"
           p50 p99)
  in
  let* () =
    (* flight-recorder window percentiles: exact over every request the
       server completed, measured server-side *)
    if exact_p50 > 0.0 && exact_p50 <= exact_p99 then Ok ()
    else
      Error
        (Printf.sprintf
           "flight-recorder percentiles implausible (exact p50 %.1f, exact \
            p99 %.1f)"
           exact_p50 exact_p99)
  in
  Ok
    (Printf.sprintf
       "serve soak benchmark, %.0f requests, p50 %.0f us, p99 %.0f us" requests
       p50 p99)

let validate_file path =
  match read_file path with
  | exception Sys_error m -> Error m
  | content ->
    let* j = Json.parse content in
    (match Json.member "schema" j with
     | Some s when Json.to_str s = Some "unit-memplan" -> validate_memplan j
     | Some s when Json.to_str s = Some "unit-emit" -> validate_emit j
     | Some s when Json.to_str s = Some "unit-serve" -> validate_serve j
     | Some _ ->
       let* r = of_json j in
       Ok
         (Printf.sprintf "perf report, target %s, %d kernels" r.pg_target
            (List.length r.pg_kernels))
     | None ->
       if Json.member "outcomes" j <> None then validate_outcomes j
       else if Json.member "workload" j <> None then validate_interp j
       else
         Error
           "unrecognized benchmark shape (expected a perf report, an \
            outcomes file, or an interpreter benchmark)")
