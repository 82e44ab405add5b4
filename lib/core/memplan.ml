open Unit_dtype
open Unit_graph
module Liveness = Unit_analysis.Liveness
module Arena = Unit_analysis.Arena
module Footprint = Unit_analysis.Footprint
module Obs = Unit_obs.Obs
module Json = Unit_obs.Json

(* Driver for the graph-level memory analysis: resolve a model spec to
   the graph the latency figures use (structural quantization + fusion),
   run the liveness/arena planner, have the checker prove the plan, and
   freeze the zoo-wide numbers as BENCH_memplan.json. *)

let c_peak = Obs.counter "mem.peak.bytes"
let c_arena = Obs.counter "mem.arena.bytes"
let c_reuse = Obs.counter "mem.reuse.ratio"

type analysis = {
  ma_graph : Graph.t;
  ma_ranges : Liveness.range array;
  ma_plan : Arena.t;
  ma_diags : Unit_tir.Diag.t list;  (* checker verdict; [] = proven sound *)
  ma_stats : Arena.stats;
}

(* ---------- model resolution ---------- *)

let table1_graph (wl : Workload.conv2d) =
  let open Graph.Builder in
  let b = create () in
  let x = input b ~shape:[ wl.Workload.c; wl.Workload.h; wl.Workload.w ] Dtype.F32 in
  let y =
    conv2d b
      ~groups:wl.Workload.groups
      ~padding:wl.Workload.padding
      ~stride:wl.Workload.stride
      ~channels:wl.Workload.k
      ~kernel:wl.Workload.kernel x
  in
  let y = bias_add b y in
  let y = relu b y in
  finish b y

let build_graph ~model ~act_dtype =
  let base =
    Result.map
      (function `Table1 (_, wl) -> table1_graph wl | `Model build -> build ())
      (Unit_models.Zoo.resolve model)
  in
  Result.map
    (fun g -> Passes.fuse (Passes.quantize_structural ~act_dtype g))
    base

(* ---------- the analysis ---------- *)

let analyze g =
  let ranges = Liveness.analyze g in
  let plan = Arena.plan_ranges ranges in
  let diags = Arena.check g plan in
  let stats = Arena.stats ranges plan in
  if Obs.enabled () then begin
    Obs.add c_peak stats.Arena.st_peak_bytes;
    Obs.add c_arena stats.Arena.st_arena_bytes;
    (* counters are integral: the ratio is recorded in percent *)
    Obs.add c_reuse
      (int_of_float (Float.round (stats.Arena.st_reuse_ratio *. 100.0)))
  end;
  { ma_graph = g; ma_ranges = ranges; ma_plan = plan; ma_diags = diags;
    ma_stats = stats }

(* Per-op kernel footprints: the distinct tensorizable conv workloads of
   the graph, compiled for the target, under the static footprint pass.
   Workloads the pipeline cannot tensorize are reported by name only. *)
let kernel_reports ~target g =
  List.map
    (fun (wl, count) ->
      let name = Workload.name (Workload.Conv wl) in
      match Pipeline.compiled target (Workload.Conv wl) with
      | c -> (name, count, Some (Pipeline.mem_report c))
      | exception Invalid_argument _ -> (name, count, None))
    (Unit_models.Zoo.conv_workloads g)

(* ---------- the frozen zoo benchmark ---------- *)

let bench_schema = "unit-memplan"
let bench_version = 1

type bench_row = {
  br_model : string;
  br_naive_bytes : int;
  br_peak_bytes : int;
  br_arena_bytes : int;
  br_reuse_ratio : float;
  br_slots : int;
}

(* The zoo under the x86 act-dtype choice (u8): which dtype is irrelevant
   to host bytes, but keeping one fixed pipeline makes the freeze
   deterministic. *)
let bench_rows () =
  let act_dtype = Pipeline.target_act_dtype Pipeline.X86 in
  List.map
    (fun (name, build) ->
      let g = Passes.fuse (Passes.quantize_structural ~act_dtype (build ())) in
      let a = analyze g in
      (match a.ma_diags with
       | [] -> ()
       | d :: _ ->
         invalid_arg
           (Printf.sprintf "memplan: checker rejected the %s plan: %s" name
              (Unit_tir.Diag.to_string d)));
      { br_model = name;
        br_naive_bytes = a.ma_stats.Arena.st_naive_bytes;
        br_peak_bytes = a.ma_stats.Arena.st_peak_bytes;
        br_arena_bytes = a.ma_stats.Arena.st_arena_bytes;
        br_reuse_ratio = a.ma_stats.Arena.st_reuse_ratio;
        br_slots = List.length a.ma_plan.Arena.p_slots
      })
    Unit_models.Zoo.all

let bench_to_json rows =
  Json.Obj
    [ ("schema", Json.Str bench_schema);
      ("v", Json.Num (float_of_int bench_version));
      ( "models",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [ ("model", Json.Str r.br_model);
                   ("naive_bytes", Json.Num (float_of_int r.br_naive_bytes));
                   ("peak_bytes", Json.Num (float_of_int r.br_peak_bytes));
                   ("arena_bytes", Json.Num (float_of_int r.br_arena_bytes));
                   ("reuse_ratio", Json.Num r.br_reuse_ratio);
                   ("slots", Json.Num (float_of_int r.br_slots))
                 ])
             rows) )
    ]

let write_bench path rows =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (bench_to_json rows));
      output_char oc '\n')

(* ---------- reporting ---------- *)

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let pp_analysis name ppf a =
  let s = a.ma_stats in
  Format.fprintf ppf
    "@[<v>%s: %d nodes, %d arena slots@,\
     naive per-op peak   %10.2f MiB@,\
     liveness floor      %10.2f MiB@,\
     planned arena       %10.2f MiB  (%.1f%% of naive)@,\
     checker: %s@]"
    name (Graph.arity a.ma_graph)
    (List.length a.ma_plan.Arena.p_slots)
    (mib s.Arena.st_naive_bytes) (mib s.Arena.st_peak_bytes)
    (mib s.Arena.st_arena_bytes)
    (s.Arena.st_reuse_ratio *. 100.0)
    (match a.ma_diags with
     | [] -> "plan proven sound"
     | ds -> Printf.sprintf "REJECTED (%d violation(s))" (List.length ds))

let analysis_to_json name a =
  let s = a.ma_stats in
  Json.Obj
    [ ("model", Json.Str name);
      ("nodes", Json.Num (float_of_int (Graph.arity a.ma_graph)));
      ("slots", Json.Num (float_of_int (List.length a.ma_plan.Arena.p_slots)));
      ("naive_bytes", Json.Num (float_of_int s.Arena.st_naive_bytes));
      ("peak_bytes", Json.Num (float_of_int s.Arena.st_peak_bytes));
      ("arena_bytes", Json.Num (float_of_int s.Arena.st_arena_bytes));
      ("reuse_ratio", Json.Num s.Arena.st_reuse_ratio);
      ("sound", Json.Bool (a.ma_diags = []));
      ( "diags",
        Json.Arr
          (List.map (fun d -> Json.Str (Unit_tir.Diag.to_string d)) a.ma_diags) );
      ( "plan",
        Json.Arr
          (List.map
             (fun (sl : Arena.slot) ->
               let r = a.ma_ranges.(sl.Arena.s_id) in
               Json.Obj
                 [ ("node", Json.Num (float_of_int sl.Arena.s_id));
                   ("name", Json.Str r.Liveness.lv_name);
                   ("class", Json.Str (Arena.class_name sl.Arena.s_class));
                   ("byte_offset", Json.Num (float_of_int (Arena.byte_offset a.ma_plan sl)));
                   ("bytes", Json.Num (float_of_int (sl.Arena.s_words * Liveness.word_bytes)));
                   ("def", Json.Num (float_of_int r.Liveness.lv_def));
                   ("last", Json.Num (float_of_int r.Liveness.lv_last))
                 ])
             a.ma_plan.Arena.p_slots) )
    ]
