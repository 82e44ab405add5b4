(* Tests for the Rewriter: loop reorganization and tensorized-instruction
   replacement.  The decisive criterion is the paper's implicit one — a
   tensorized program computes exactly what the scalar reference computes,
   for every (operation, instruction) pair. *)

open Unit_dtype
open Unit_dsl
open Unit_tir
open Unit_isa
open Unit_codegen
module Inspector = Unit_inspector.Inspector
module Reorganize = Unit_rewriter.Reorganize
module Replace = Unit_rewriter.Replace

let () = Defs.ensure_registered ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Tensorize [op] with [intrin] (mapping [mapping_index]) and check the
   result against the scalar reference on random inputs. *)
let tensorize_and_compare ?(mapping_index = 0) ?(tol = None) op intrin =
  let ap =
    match Inspector.inspect op intrin with
    | Ok ap -> ap
    | Error r -> Alcotest.failf "inspect failed: %s" (Inspector.rejection_to_string r)
  in
  let reorganized = Reorganize.apply op ap ~mapping_index () in
  let func = Replace.run (Lower.lower reorganized.Reorganize.schedule) in
  (* the replaced body must contain an intrinsic call and no tensorized loop *)
  check_bool "has intrin call" true
    (Stmt.exists
       (function Stmt.Intrin_call _ -> true | _ -> false)
       func.Lower.fn_body);
  check_bool "no tensorized loop left" false
    (Stmt.exists
       (function Stmt.For { kind = Stmt.Tensorized _; _ } -> true | _ -> false)
       func.Lower.fn_body);
  let inputs = List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:11 t)) (Op.inputs op) in
  let out_ref = Ndarray.of_tensor_zeros op.Op.output in
  let out_tensorized = Ndarray.of_tensor_zeros op.Op.output in
  Compile.run (Lower.scalar_reference op) ~bindings:((op.Op.output, out_ref) :: inputs);
  Compile.run func ~bindings:((op.Op.output, out_tensorized) :: inputs);
  match tol with
  | None -> check_bool "bit-identical to scalar reference" true (Ndarray.equal out_ref out_tensorized)
  | Some tol ->
    check_bool "matches scalar reference within tolerance" true
      (Ndarray.approx_equal ~tol out_tensorized out_ref)

let conv_nchwc ?(data = Dtype.U8) ?(weight = Dtype.I8) ?(lanes = 16) ?(rw = 4) ?(c = 8)
    ?(k = 32) ?(hw = 6) ?(kernel = 3) ?(stride = 1) () =
  Op_library.conv2d_nchwc ~data_dtype:data ~weight_dtype:weight ~acc_dtype:Dtype.I32
    ~lanes ~reduce_width:rw
    { Op_library.in_channels = c; in_height = hw; in_width = hw; out_channels = k;
      kernel; stride }

(* ---------- reorganization ---------- *)

let test_reorganize_structure () =
  let op = conv_nchwc () in
  let ap =
    match Inspector.inspect op Defs.vnni_vpdpbusd with
    | Ok ap -> ap
    | Error r -> Alcotest.failf "inspect: %s" (Inspector.rejection_to_string r)
  in
  let r = Reorganize.apply op ap () in
  let leaves = Schedule.leaves r.Reorganize.schedule in
  (* the two region iters are the innermost leaves, in instruction order *)
  check_int "region size" 2 (List.length r.Reorganize.region);
  let innermost = List.filteri (fun idx _ -> idx >= List.length leaves - 2) leaves in
  check_bool "region innermost" true
    (List.for_all2 Schedule.Iter.equal innermost r.Reorganize.region);
  (* the marked leaf carries the pragma *)
  (match Schedule.annotation r.Reorganize.schedule (List.hd r.Reorganize.region) with
   | Schedule.Tensorize info ->
     Alcotest.(check string) "intrin" "vnni.vpdpbusd" info.Schedule.intrin_name
   | _ -> Alcotest.fail "pragma missing");
  (* ok (extent 16 = lanes) is reordered without a degenerate split *)
  check_int "outer iters" (List.length leaves - 2) (List.length r.Reorganize.outer)

let test_reorganize_bad_mapping_index () =
  let op = conv_nchwc () in
  match Inspector.inspect op Defs.vnni_vpdpbusd with
  | Error _ -> Alcotest.fail "inspect failed"
  | Ok ap ->
    (match Reorganize.apply op ap ~mapping_index:999 () with
     | exception Reorganize.Rewrite_error _ -> ()
     | _ -> Alcotest.fail "bad index accepted")

(* ---------- end-to-end differentials ---------- *)

let test_conv_vnni () = tensorize_and_compare (conv_nchwc ()) Defs.vnni_vpdpbusd

let test_conv_vnni_strided () =
  tensorize_and_compare (conv_nchwc ~hw:9 ~stride:2 ()) Defs.vnni_vpdpbusd

let test_conv_vnni_1x1 () =
  tensorize_and_compare (conv_nchwc ~kernel:1 ()) Defs.vnni_vpdpbusd

(* channel count larger than the reduction width: co stays an outer loop *)
let test_conv_vnni_deep_channels () =
  tensorize_and_compare (conv_nchwc ~c:16 ()) Defs.vnni_vpdpbusd

let test_conv_nhwc_vnni () =
  let op =
    Op_library.conv2d_nhwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32
      { Op_library.in_channels = 8; in_height = 6; in_width = 6; out_channels = 16;
        kernel = 3; stride = 1 }
  in
  tensorize_and_compare op Defs.vnni_vpdpbusd

let test_matmul_vnni () =
  let op =
    Op_library.matmul ~n:8 ~m:32 ~k:16 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  tensorize_and_compare op Defs.vnni_vpdpbusd

let test_dense_vnni () =
  let op =
    Op_library.dense ~m:32 ~k:16 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  tensorize_and_compare op Defs.vnni_vpdpbusd

let test_conv_arm_dot () =
  tensorize_and_compare
    (conv_nchwc ~data:Dtype.I8 ~lanes:4 ())
    Defs.arm_sdot

let test_conv_arm_udot () = tensorize_and_compare (conv_nchwc ~lanes:4 ()) Defs.arm_udot

let test_conv_neon_mla () =
  (* pre-DOT NEON path: only the lane axis is tensorized *)
  tensorize_and_compare
    (conv_nchwc ~data:Dtype.I16 ~weight:Dtype.I16 ~lanes:4 ())
    Defs.neon_mla_i16

let test_conv_amx () =
  (* AMX is 2-D (16x16 output tile, 64-deep reduction): two dp axes map *)
  tensorize_and_compare (conv_nchwc ~c:64 ~rw:64 ~hw:18 ~k:32 ()) Defs.amx_tdpbusd

let test_conv_sve () = tensorize_and_compare (conv_nchwc ~lanes:8 ~k:32 ()) Defs.sve256_udot

let test_matmul_wmma_f16 () =
  let op =
    Op_library.matmul ~n:32 ~m:32 ~k:32 ~a_dtype:Dtype.F16 ~b_dtype:Dtype.F16
      ~acc_dtype:Dtype.F32 ()
  in
  (* fp32 accumulation order differs between scalar and tiled execution *)
  tensorize_and_compare ~tol:(Some 1e-3) op Defs.wmma_f16

let test_matmul_wmma_i8 () =
  let op =
    Op_library.matmul ~n:32 ~m:32 ~k:32 ~a_dtype:Dtype.I8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  tensorize_and_compare op Defs.wmma_i8

let test_conv3d_vnni () =
  let op =
    Op_library.conv3d_ncdhwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ~lanes:16 ~reduce_width:4
      { Op_library.c3_in_channels = 4; c3_in_depth = 5; c3_in_height = 5;
        c3_in_width = 5; c3_out_channels = 16; c3_kernel = 3; c3_stride = 1 }
  in
  tensorize_and_compare op Defs.vnni_vpdpbusd

let test_alternative_mapping_also_correct () =
  (* any feasible mapping must be correct, not just the greedy one *)
  let op =
    Op_library.matmul ~n:16 ~m:16 ~k:16 ~a_dtype:Dtype.I8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  match Inspector.inspect op Defs.arm_sdot with
  | Error r -> Alcotest.failf "inspect: %s" (Inspector.rejection_to_string r)
  | Ok ap ->
    List.iteri
      (fun idx _ -> tensorize_and_compare ~mapping_index:idx op Defs.arm_sdot)
      ap.Inspector.ap_mappings

(* after tensorizing, scheduling the outer loops must stay correct *)
let test_outer_schedule_after_tensorize () =
  let op = conv_nchwc () in
  let ap =
    match Inspector.inspect op Defs.vnni_vpdpbusd with
    | Ok ap -> ap
    | Error _ -> Alcotest.fail "inspect"
  in
  let r = Reorganize.apply op ap () in
  let s = r.Reorganize.schedule in
  (* fuse the two outermost dp iters and parallelize; unroll another *)
  let s =
    match r.Reorganize.outer with
    | first :: second :: rest ->
      let s, fused = Schedule.fuse s first second in
      let s = Schedule.annotate s fused Schedule.Parallel in
      (match List.rev rest with
       | last :: _ when last.Schedule.Iter.kind = Axis.Data_parallel ->
         Schedule.annotate s last Schedule.Unroll
       | _ -> s)
    | _ -> Alcotest.fail "expected outer iters"
  in
  let func = Replace.run (Lower.lower s) in
  let inputs = List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:3 t)) (Op.inputs op) in
  let out_ref = Ndarray.of_tensor_zeros op.Op.output in
  let out_tuned = Ndarray.of_tensor_zeros op.Op.output in
  Compile.run (Lower.scalar_reference op) ~bindings:((op.Op.output, out_ref) :: inputs);
  Compile.run func ~bindings:((op.Op.output, out_tuned) :: inputs);
  check_bool "tuned tensorized conv matches" true (Ndarray.equal out_ref out_tuned)

(* residue guards outside the tensorized region are hoisted correctly *)
let test_guard_hoisting () =
  let op = conv_nchwc ~hw:7 () in
  (* output height/width 5; split an outer spatial loop by a non-divisor *)
  let ap =
    match Inspector.inspect op Defs.vnni_vpdpbusd with
    | Ok ap -> ap
    | Error _ -> Alcotest.fail "inspect"
  in
  let r = Reorganize.apply op ap () in
  let s = r.Reorganize.schedule in
  let oh =
    List.find
      (fun (it : Schedule.Iter.t) -> it.extent = 5 && it.kind = Axis.Data_parallel)
      r.Reorganize.outer
  in
  let s, _, _ = Schedule.split s oh ~factor:2 in
  let func = Replace.run (Lower.lower s) in
  let inputs = List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:5 t)) (Op.inputs op) in
  let out_ref = Ndarray.of_tensor_zeros op.Op.output in
  let out_t = Ndarray.of_tensor_zeros op.Op.output in
  Compile.run (Lower.scalar_reference op) ~bindings:((op.Op.output, out_ref) :: inputs);
  Compile.run func ~bindings:((op.Op.output, out_t) :: inputs);
  check_bool "guarded tensorized conv matches" true (Ndarray.equal out_ref out_t)

(* the per-(op, ISA) differential checks are independent: fan them across
   domains through the parallel oracle and require every pair to match *)
let test_parallel_oracle_differentials () =
  let differential (op, intrin) =
    match Inspector.inspect op intrin with
    | Error _ -> false
    | Ok ap ->
      let r = Reorganize.apply op ap () in
      let func = Replace.run (Lower.lower r.Reorganize.schedule) in
      let inputs =
        List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:13 t)) (Op.inputs op)
      in
      let out_ref = Ndarray.of_tensor_zeros op.Op.output in
      let out_t = Ndarray.of_tensor_zeros op.Op.output in
      Compile.run (Lower.scalar_reference op)
        ~bindings:((op.Op.output, out_ref) :: inputs);
      Compile.run func ~bindings:((op.Op.output, out_t) :: inputs);
      Ndarray.equal out_ref out_t
  in
  let pairs =
    [ (conv_nchwc (), Defs.vnni_vpdpbusd);
      (conv_nchwc ~hw:9 ~stride:2 (), Defs.vnni_vpdpbusd);
      (conv_nchwc ~lanes:4 (), Defs.arm_udot);
      (conv_nchwc ~data:Dtype.I8 ~lanes:4 (), Defs.arm_sdot)
    ]
  in
  let results = Parallel_oracle.map differential pairs in
  check_bool "all (op, ISA) pairs match under the parallel oracle" true
    (List.for_all Fun.id results)

(* property: random valid conv shapes tensorized with VNNI always match *)
let prop_random_convs_match =
  QCheck.Test.make ~name:"random conv shapes tensorize correctly with VNNI" ~count:15
    QCheck.(
      quad (int_range 1 3) (* c_outer *)
        (int_range 1 2) (* k_outer *)
        (int_range 4 7) (* input hw *)
        (pair (int_range 1 3) (int_range 1 2)) (* kernel, stride *))
    (fun (co, ko, hw, (kernel, stride)) ->
      QCheck.assume (hw >= kernel);
      let op =
        conv_nchwc ~c:(co * 4) ~k:(ko * 16) ~hw ~kernel ~stride ()
      in
      match Inspector.inspect op Defs.vnni_vpdpbusd with
      | Error _ -> false
      | Ok ap ->
        let r = Reorganize.apply op ap () in
        let func = Replace.run (Lower.lower r.Reorganize.schedule) in
        let inputs =
          List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:23 t)) (Op.inputs op)
        in
        let out_ref = Ndarray.of_tensor_zeros op.Op.output in
        let out_t = Ndarray.of_tensor_zeros op.Op.output in
        Compile.run (Lower.scalar_reference op)
          ~bindings:((op.Op.output, out_ref) :: inputs);
        Compile.run func ~bindings:((op.Op.output, out_t) :: inputs);
        Ndarray.equal out_ref out_t)

(* ---------- the decision-keyed tuner sweep ---------- *)

module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Pipeline = Unit_core.Pipeline
module Obs = Unit_obs.Obs

(* Every distinct zoo conv on both CPU targets, reorganized as the
   pipeline reorganizes it: (kernel key, machine, schedule). *)
let zoo_convs () =
  let seen = Hashtbl.create 256 in
  List.concat_map
    (fun target ->
      let intrin = Registry.find_exn (Pipeline.target_intrin target) in
      List.concat_map
        (fun (_, build) ->
          List.filter_map
            (fun (wl, _) ->
              let key = Pipeline.kernel_key target (Unit_graph.Workload.Conv wl) in
              if Hashtbl.mem seen key then None
              else begin
                Hashtbl.add seen key ();
                let op = Pipeline.conv_op intrin wl in
                match Inspector.inspect op intrin with
                | Ok ap -> Some (key, Pipeline.target_spec target, Reorganize.apply op ap ())
                | Error r ->
                  Alcotest.failf "%s: %s" key (Inspector.rejection_to_string r)
              end)
            (Unit_models.Zoo.conv_workloads (build ())))
        Unit_models.Zoo.all)
    [ Pipeline.X86; Pipeline.Arm ]

(* [tune] realizes one config per decision class and still picks what a
   fold realizing every config would: the same config and cycles
   (strict [<], the first of equal estimates wins). *)
let test_decision_keyed_sweep () =
  let kernels = zoo_convs () in
  check_int "distinct zoo convs on both targets" 250 (List.length kernels);
  let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ())) in
  let cycles (t : Cpu_tuner.tuned) = t.Cpu_tuner.t_estimate.Unit_machine.Cpu_model.est_cycles in
  let faults =
    List.concat_map
      (fun (key, spec, r) ->
        let configs = Cpu_tuner.candidate_configs spec in
        let exhaustive =
          List.fold_left
            (fun best config ->
              let t = Cpu_tuner.of_config spec r config in
              match best with
              | Some b when not (cycles t < cycles b) -> best
              | _ -> Some t)
            None configs
          |> Option.get
        in
        let classes =
          List.length (List.sort_uniq compare (List.map (Cpu_tuner.decide r) configs))
        in
        Obs.reset ();
        Obs.set_enabled true;
        let tuned =
          Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> Cpu_tuner.tune spec r)
        in
        let candidates = counter "tuner.candidates" and pruned = counter "tuner.pruned" in
        List.filter_map
          (fun (ok, what) -> if ok then None else Some (key ^ ": " ^ what))
          [ (tuned.Cpu_tuner.t_config = exhaustive.Cpu_tuner.t_config, "config");
            (cycles tuned = cycles exhaustive, "cycles");
            (candidates = classes, "one candidate per decision class");
            (candidates + pruned = List.length configs, "candidates + pruned = grid")
          ])
      kernels
  in
  Obs.reset ();
  Alcotest.(check (list string)) "sweeps that differ from the exhaustive one" [] faults

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "rewriter"
    [ ( "reorganize",
        [ Alcotest.test_case "structure" `Quick test_reorganize_structure;
          Alcotest.test_case "bad mapping index" `Quick test_reorganize_bad_mapping_index
        ] );
      ( "tensorize",
        [ Alcotest.test_case "conv x vnni" `Quick test_conv_vnni;
          Alcotest.test_case "strided conv x vnni" `Quick test_conv_vnni_strided;
          Alcotest.test_case "1x1 conv x vnni" `Quick test_conv_vnni_1x1;
          Alcotest.test_case "deep channels x vnni" `Quick test_conv_vnni_deep_channels;
          Alcotest.test_case "nhwc conv x vnni (fig5)" `Quick test_conv_nhwc_vnni;
          Alcotest.test_case "matmul x vnni" `Quick test_matmul_vnni;
          Alcotest.test_case "dense x vnni" `Quick test_dense_vnni;
          Alcotest.test_case "conv x arm sdot" `Quick test_conv_arm_dot;
          Alcotest.test_case "conv x arm udot" `Quick test_conv_arm_udot;
          Alcotest.test_case "conv x neon mla" `Quick test_conv_neon_mla;
          Alcotest.test_case "conv x amx" `Quick test_conv_amx;
          Alcotest.test_case "conv x sve udot" `Quick test_conv_sve;
          Alcotest.test_case "matmul x wmma f16" `Quick test_matmul_wmma_f16;
          Alcotest.test_case "matmul x wmma i8" `Quick test_matmul_wmma_i8;
          Alcotest.test_case "conv3d x vnni" `Quick test_conv3d_vnni;
          Alcotest.test_case "alternative mappings" `Quick
            test_alternative_mapping_also_correct;
          Alcotest.test_case "outer schedule" `Quick test_outer_schedule_after_tensorize;
          Alcotest.test_case "guard hoisting" `Quick test_guard_hoisting;
          Alcotest.test_case "parallel oracle" `Quick test_parallel_oracle_differentials
        ]
        @ qcheck [ prop_random_convs_match ] );
      ( "tuner",
        [ Alcotest.test_case "decision-keyed sweep matches exhaustive" `Quick
            test_decision_keyed_sweep
        ] )
    ]
