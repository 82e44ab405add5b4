(* Graph-level static memory analysis: liveness, the arena planner, the
   independent overlap checker, and the arena-backed executor.

   The load-bearing properties:
   - arena-planned execution is bit-identical to per-op-buffer execution
     on every zoo model (the plan only changes where tensors live);
   - the checker rejects corrupted plans (offset-collision injection) —
     the planner proposes, the checker proves. *)

open Unit_dtype
open Unit_codegen
open Unit_graph
module Liveness = Unit_analysis.Liveness
module Arena = Unit_analysis.Arena
module Footprint = Unit_analysis.Footprint
module Memplan = Unit_core.Memplan
module Diag = Unit_tir.Diag

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The zoo under the same pipeline the freeze uses.  [exec_size] shrinks
   the spatial input for numeric runs: the executor derives shapes from
   the runtime tensors, so the declared-shape plan's slots are simply
   roomier than needed, and the scalar oracle stays affordable.  16 is
   the smallest edge that keeps every downsampling stage non-empty on
   all nine models. *)
let zoo_graphs () =
  List.map
    (fun (name, build) ->
      (name, Passes.fuse (Passes.quantize_structural ~act_dtype:Dtype.U8 (build ()))))
    Unit_models.Zoo.all

let exec_size _name = 16

let small_input g ~size ~seed =
  let input_node =
    List.find
      (fun (n : Graph.node) ->
        match n.Graph.kind with Graph.Input _ -> true | _ -> false)
      (Graph.nodes g)
  in
  let channels =
    match Graph.shape_of g input_node.Graph.id with
    | c :: _ -> c
    | [] -> Alcotest.fail "input with empty shape"
  in
  Ndarray.init_float ~dtype:Dtype.F32 ~shape:[ channels; size; size ]
    (fun idx ->
      let flat = Array.fold_left (fun acc i -> (acc * 2039) + i) seed idx in
      float_of_int (((flat * 2654435) land 0xffff) + 1) /. 65537.0)

(* ---------- liveness ---------- *)

(* A diamond: the residual operand must stay live across the whole
   branch it skips, and the graph output is pinned one id past the last
   node.  Node order: x, w1, c1, w2, c2, add, relu. *)
let diamond () =
  let open Graph.Builder in
  let b = create () in
  let x = input b ~shape:[ 4; 8; 8 ] Dtype.F32 in
  let c1 = conv2d b ~channels:4 ~kernel:3 ~padding:1 x in
  let c2 = conv2d b ~channels:4 ~kernel:3 ~padding:1 c1 in
  let y = add b c1 c2 in
  (finish b (relu b y), x, c1, c2, y)

let test_liveness_ranges () =
  let g, x, c1, c2, y = diamond () in
  let ranges = Liveness.analyze g in
  check_int "one range per node" (Graph.arity g) (Array.length ranges);
  Array.iteri
    (fun id (r : Liveness.range) ->
      check_int "range is keyed by node id" id r.Liveness.lv_id;
      check_int "def is the producer's id" id r.Liveness.lv_def;
      check_int "bytes = 8 * elems" (Liveness.word_bytes * r.Liveness.lv_elems)
        r.Liveness.lv_bytes)
    ranges;
  let last id = ranges.(id).Liveness.lv_last in
  check_int "input dies at its only consumer" c1 (last x);
  check_int "residual operand lives until the add" y (last c1);
  check_int "branch output lives until the add" y (last c2);
  check_int "add lives until the relu" (Graph.output g) (last y);
  check_int "output escapes past the last node" (Graph.arity g) (last (Graph.output g));
  check_bool "branch operands interfere" true (Liveness.interfere ranges.(c1) ranges.(c2));
  check_bool "interference is symmetric" true (Liveness.interfere ranges.(c2) ranges.(c1));
  check_bool "a tensor dead before the branch does not interfere" false
    (Liveness.interfere ranges.(x) ranges.(c2));
  check_bool "inputs are not intermediates" false ranges.(x).Liveness.lv_intermediate;
  (* at the add, c1, c2 and the sum are live: three 4x8x8 tensors *)
  check_int "peak is at the add" (3 * 4 * 8 * 8 * Liveness.word_bytes)
    (Liveness.peak_bytes ranges)

(* ---------- planner ---------- *)

let test_planner_bounds_every_zoo_model () =
  List.iter
    (fun (name, g) ->
      let ranges = Liveness.analyze g in
      let plan = Arena.plan_ranges ranges in
      check_bool (name ^ ": checker proves the plan") true
        (Arena.check g plan = []);
      let stats = Arena.stats ranges plan in
      check_bool (name ^ ": arena cannot beat the liveness floor") true
        (stats.Arena.st_arena_bytes >= stats.Arena.st_peak_bytes);
      check_bool (name ^ ": arena never exceeds naive") true
        (stats.Arena.st_arena_bytes <= stats.Arena.st_naive_bytes);
      (* every intermediate is planned, exactly once *)
      let planned = Hashtbl.create 64 in
      List.iter
        (fun (s : Arena.slot) ->
          check_bool (name ^ ": no duplicate slot") false
            (Hashtbl.mem planned s.Arena.s_id);
          Hashtbl.replace planned s.Arena.s_id ())
        plan.Arena.p_slots;
      Array.iter
        (fun (r : Liveness.range) ->
          if r.Liveness.lv_intermediate then
            check_bool (name ^ ": intermediate has a slot") true
              (Hashtbl.mem planned r.Liveness.lv_id))
        ranges)
    (zoo_graphs ())

let test_resnet18_reuse_gate () =
  let g = List.assoc "resnet18" (zoo_graphs ()) in
  let ranges = Liveness.analyze g in
  let stats = Arena.stats ranges (Arena.plan_ranges ranges) in
  check_bool
    (Printf.sprintf "resnet18 arena at %.1f%% of naive (gate: <= 60%%)"
       (stats.Arena.st_reuse_ratio *. 100.0))
    true
    (stats.Arena.st_reuse_ratio <= 0.60)

(* ---------- checker vs a corrupted plan ---------- *)

(* Inject an offset collision: move one slot onto an interfering peer of
   the same storage class.  The checker must reject with mem-plan
   diagnostics — it shares no state with the planner, so the corruption
   cannot hide. *)
let corrupt_plan (ranges : Liveness.range array) (plan : Arena.t) =
  let slots = Array.of_list plan.Arena.p_slots in
  let collision = ref None in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if !collision = None && i < j
             && a.Arena.s_class = b.Arena.s_class
             && Liveness.interfere ranges.(a.Arena.s_id) ranges.(b.Arena.s_id)
          then collision := Some (a, b))
        slots)
    slots;
  match !collision with
  | None -> None
  | Some (a, b) ->
    Some
      { plan with
        Arena.p_slots =
          List.map
            (fun (s : Arena.slot) ->
              if s.Arena.s_id = b.Arena.s_id then { s with Arena.s_off = a.Arena.s_off }
              else s)
            plan.Arena.p_slots
      }

let test_checker_rejects_offset_collision () =
  let g = List.assoc "resnet18" (zoo_graphs ()) in
  let ranges = Liveness.analyze g in
  let plan = Arena.plan_ranges ranges in
  check_bool "pristine plan is sound" true (Arena.check g plan = []);
  match corrupt_plan ranges plan with
  | None -> Alcotest.fail "resnet18 has no interfering same-class slot pair"
  | Some bad ->
    let diags = Arena.check g bad in
    check_bool "corrupted plan rejected" true (diags <> []);
    List.iter
      (fun (d : Diag.t) ->
        Alcotest.(check string) "mem-plan rule" "mem-plan" (Diag.rule_id d.Diag.rule))
      diags

let test_checker_rejects_missing_slot () =
  let g = List.assoc "squeezenet" (zoo_graphs ()) in
  let plan = Arena.plan g in
  let bad = { plan with Arena.p_slots = List.tl plan.Arena.p_slots } in
  check_bool "plan with a dropped slot rejected" true (Arena.check g bad <> [])

(* ---------- arena-backed execution ---------- *)

let run_both name g ~seed =
  let input = small_input g ~size:(exec_size name) ~seed in
  let baseline = Executor.run_to_floats g ~input in
  let plan = Arena.plan g in
  Alcotest.(check (list string))
    (name ^ ": plan proven before running")
    []
    (List.map Diag.to_string (Arena.check g plan));
  let planned = Executor.run_to_floats ~plan:(Arena.exec_plan plan) g ~input in
  (baseline, planned)

let bit_identical a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i)))
          then ok := false)
        a;
      !ok)

(* The qcheck property of the PR: for any input seed, executing under
   the arena plan is bit-identical to per-op buffers on every zoo
   model.  Bitwise, not within-epsilon: the plan must change where
   tensors live and nothing else. *)
let prop_arena_execution_bit_identical =
  QCheck.Test.make ~count:1 ~name:"arena-planned run is bit-identical (zoo)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      List.for_all
        (fun (name, g) ->
          let baseline, planned = run_both name g ~seed in
          if not (bit_identical baseline planned) then
            QCheck.Test.fail_reportf
              "%s: planned run diverges from per-op buffers (seed %d)" name seed
          else true)
        (zoo_graphs ()))

(* ---------- per-kernel static footprint ---------- *)

let test_footprint_of_tensorized_kernel () =
  let wl =
    { Workload.c = 64; h = 14; w = 14; k = 64; kernel = 3; stride = 1;
      padding = 0; groups = 1 }
  in
  let compiled = Unit_core.Pipeline.conv_compiled_x86 wl in
  let fp = Unit_core.Pipeline.mem_report compiled in
  check_bool "tile window is positive" true (fp.Footprint.fp_tile_window_bytes > 0);
  check_bool "alloc peak is non-negative" true (fp.Footprint.fp_alloc_bytes >= 0);
  check_bool "some buffer is touched" true (fp.Footprint.fp_touched <> []);
  List.iter
    (fun (buf, bytes) ->
      check_bool (buf ^ " touched bytes positive") true (bytes > 0))
    fp.Footprint.fp_touched;
  let touched_sum =
    List.fold_left (fun acc (_, b) -> acc + b) 0 fp.Footprint.fp_touched
  in
  check_int "total = scratch peak + touched"
    (fp.Footprint.fp_alloc_bytes + touched_sum)
    fp.Footprint.fp_total_bytes

(* Sibling Allocs must not stack (they never coexist); nested ones must. *)
let test_footprint_alloc_peak_follows_blocks () =
  let open Unit_tir in
  let buf name size = Buffer.create ~name ~dtype:Dtype.F32 ~size () in
  let store b = Stmt.Store (b, Texpr.int_imm 0, Texpr.float_imm 0.0) in
  let a = buf "a" 10 and b = buf "b" 20 and c = buf "c" 30 in
  let siblings =
    Stmt.Seq [ Stmt.Alloc (a, store a); Stmt.Alloc (b, store b) ]
  in
  let nested = Stmt.Alloc (a, Stmt.Alloc (c, store c)) in
  let bytes n = n * Dtype.bytes Dtype.F32 in
  check_int "siblings peak at the larger" (bytes 20)
    (Footprint.of_stmt siblings).Footprint.fp_alloc_bytes;
  check_int "nested allocations stack" (bytes 40)
    (Footprint.of_stmt nested).Footprint.fp_alloc_bytes

(* ---------- the frozen benchmark ---------- *)

let test_bench_rows_match_analysis () =
  let rows = Memplan.bench_rows () in
  check_int "one row per zoo model" (List.length Unit_models.Zoo.all)
    (List.length rows);
  List.iter
    (fun (r : Memplan.bench_row) ->
      check_bool (r.Memplan.br_model ^ ": arena <= naive") true
        (r.Memplan.br_arena_bytes <= r.Memplan.br_naive_bytes);
      check_bool (r.Memplan.br_model ^ ": ratio consistent") true
        (Float.abs
           (r.Memplan.br_reuse_ratio
            -. float_of_int r.Memplan.br_arena_bytes
               /. float_of_int r.Memplan.br_naive_bytes)
         <= 0.001))
    rows

(* The checked-in freeze reproduces field by field: integers exactly,
   the reuse ratio to rounding.  A liveness or planner change that moves
   a frozen byte, or a stale freeze, fails here. *)
let test_bench_freeze_reproduces () =
  let module Json = Unit_obs.Json in
  let frozen =
    match
      Json.parse (In_channel.with_open_bin "../BENCH_memplan.json" In_channel.input_all)
    with
    | Ok j -> Result.get_ok (Json.list_field "models" j)
    | Error m -> Alcotest.failf "BENCH_memplan.json: %s" m
  in
  let rows = Memplan.bench_rows () in
  check_int "one frozen row per model" (List.length frozen) (List.length rows);
  List.iter2
    (fun j (r : Memplan.bench_row) ->
      let int name = Result.get_ok (Json.int_field name j) in
      let model = r.Memplan.br_model in
      Alcotest.(check string) "model order" (Result.get_ok (Json.str_field "model" j)) model;
      check_int (model ^ ": naive_bytes") (int "naive_bytes") r.Memplan.br_naive_bytes;
      check_int (model ^ ": peak_bytes") (int "peak_bytes") r.Memplan.br_peak_bytes;
      check_int (model ^ ": arena_bytes") (int "arena_bytes") r.Memplan.br_arena_bytes;
      check_int (model ^ ": slots") (int "slots") r.Memplan.br_slots;
      Alcotest.(check (float 1e-12))
        (model ^ ": reuse_ratio")
        (Result.get_ok (Json.num_field "reuse_ratio" j))
        r.Memplan.br_reuse_ratio)
    frozen rows

let test_table1_spec_is_one_based () =
  (match Memplan.build_graph ~model:"table1:1" ~act_dtype:Dtype.U8 with
   | Ok _ -> ()
   | Error m -> Alcotest.fail ("table1:1 rejected: " ^ m));
  (match Memplan.build_graph ~model:"table1:0" ~act_dtype:Dtype.U8 with
   | Ok _ -> Alcotest.fail "table1:0 accepted (indexing is 1-based)"
   | Error _ -> ());
  match
    Memplan.build_graph
      ~model:
        (Printf.sprintf "table1:%d" (Array.length Unit_models.Table1.workloads + 1))
      ~act_dtype:Dtype.U8
  with
  | Ok _ -> Alcotest.fail "out-of-range table1 index accepted"
  | Error _ -> ()

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "memplan"
    [ ( "liveness",
        [ Alcotest.test_case "diamond ranges" `Quick test_liveness_ranges ] );
      ( "planner",
        [ Alcotest.test_case "bounds on every zoo model" `Quick
            test_planner_bounds_every_zoo_model;
          Alcotest.test_case "resnet18 reuse gate" `Quick test_resnet18_reuse_gate
        ] );
      ( "checker",
        [ Alcotest.test_case "rejects offset collision" `Quick
            test_checker_rejects_offset_collision;
          Alcotest.test_case "rejects missing slot" `Quick
            test_checker_rejects_missing_slot
        ] );
      ("execution", qcheck [ prop_arena_execution_bit_identical ]);
      ( "footprint",
        [ Alcotest.test_case "tensorized kernel report" `Quick
            test_footprint_of_tensorized_kernel;
          Alcotest.test_case "alloc peak follows blocks" `Quick
            test_footprint_alloc_peak_follows_blocks
        ] );
      ( "bench",
        [ Alcotest.test_case "rows match analysis" `Quick
            test_bench_rows_match_analysis;
          Alcotest.test_case "freeze reproduces" `Quick test_bench_freeze_reproduces;
          Alcotest.test_case "table1 spec is 1-based" `Quick
            test_table1_spec_is_one_based
        ] )
    ]
