(* Tests for the dependence analyzer and schedule-legality checker: legal
   schedules from the pipeline must produce zero errors; hand-built racy,
   carried-dependent and overflowing programs must be flagged with the
   right rule and severity. *)

open Unit_dtype
open Unit_dsl
open Unit_tir
module Analysis = Unit_analysis.Analysis
module Pipeline = Unit_core.Pipeline
module Inspector = Unit_inspector.Inspector
module Reorganize = Unit_rewriter.Reorganize
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Spec = Unit_machine.Spec
module Workload = Unit_graph.Workload

let () = Unit_isa.Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let buf name size dtype = Buffer.create ~name ~dtype ~size ()

let error_with rule diags =
  List.exists
    (fun (d : Diag.t) -> Diag.is_error d && d.Diag.rule = rule)
    diags

let warning_with rule diags =
  List.exists
    (fun (d : Diag.t) -> (not (Diag.is_error d)) && d.Diag.rule = rule)
    diags

let pp_diags diags =
  String.concat "; " (List.map Diag.to_string diags)

(* ---------- legal schedules must be clean ---------- *)

let tensorized_diags ?config ~spec wl =
  let intrin = Unit_isa.Registry.find_exn "vnni.vpdpbusd" in
  let lanes = Unit_isa.Intrin.output_lanes intrin in
  let reduce_width = Unit_isa.Intrin.reduction_width intrin in
  let op =
    Workload.conv_op ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8 ~lanes ~reduce_width
      wl
  in
  match Inspector.inspect op intrin with
  | Error _ -> Alcotest.fail "inspect failed"
  | Ok ap ->
    let r = Reorganize.apply op ap () in
    let tuned =
      match config with
      | Some c -> Cpu_tuner.of_config spec r c
      | None -> Cpu_tuner.tune spec r
    in
    Pipeline.analyze tuned

let test_pipeline_schedules_clean () =
  (* a spread of Table-1 shapes: exact and non-exact channel tiling,
     stride 2, 1x1 and 3x3 kernels *)
  List.iter
    (fun idx ->
      let wl = Unit_models.Table1.workloads.(idx) in
      let diags = tensorized_diags ~spec:Spec.cascadelake wl in
      if Diag.errors diags <> [] then
        Alcotest.failf "table1[%d]: %s" (idx + 1) (pp_diags diags))
    [ 0; 2; 4; 7; 13; 15 ]

let test_every_tuner_config_clean () =
  (* legality must not depend on which config the tuner picked *)
  let wl = Unit_models.Table1.workloads.(4) in
  List.iter
    (fun config ->
      let diags = tensorized_diags ~config ~spec:Spec.cascadelake wl in
      if Diag.errors diags <> [] then
        Alcotest.failf "config g%d-u%d: %s" config.Cpu_tuner.parallel_grain
          config.Cpu_tuner.unroll_budget (pp_diags diags))
    (Cpu_tuner.candidate_configs Spec.cascadelake)

let test_scalar_reference_clean () =
  let op =
    Op_library.matmul ~n:6 ~m:10 ~k:12 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  let func = Lower.scalar_reference op in
  check_int "no errors" 0 (List.length (Diag.errors (Analysis.check_func func)))

(* ---------- races ---------- *)

let test_parallel_overlapping_writes_flagged () =
  (* iterations p and p+1 both write out[p/2] *)
  let out = buf "out" 64 Dtype.I32 in
  let p = Var.create "p" in
  let racy =
    Stmt.for_ p ~extent:8 ~kind:Stmt.Parallel
      (Stmt.Store (out, Texpr.div (Texpr.var p) (Texpr.int_imm 2), Texpr.int_imm 1))
  in
  check_bool "race error" true (error_with Diag.Race (Analysis.check_stmt ~params:[ out ] racy))

let test_parallel_carried_accumulation_flagged () =
  (* a reduction loop scheduled parallel: every iteration reads and
     writes acc[0] *)
  let acc = buf "acc" 4 Dtype.I32 in
  let x = buf "x" 8 Dtype.I32 in
  let p = Var.create "p" in
  let racy =
    Stmt.for_ p ~extent:8 ~kind:Stmt.Parallel
      (Stmt.Store
         ( acc,
           Texpr.int_imm 0,
           Texpr.add (Texpr.load acc (Texpr.int_imm 0)) (Texpr.load x (Texpr.var p))
         ))
  in
  check_bool "race error" true (error_with Diag.Race (Analysis.check_stmt ~params:[ acc; x ] racy))

let test_parallel_disjoint_writes_clean () =
  let out = buf "out" 64 Dtype.I32 in
  let p = Var.create "p" in
  let i = Var.create "i" in
  let ok =
    Stmt.for_ p ~extent:8 ~kind:Stmt.Parallel
      (Stmt.for_ i ~extent:8
         (Stmt.Store
            ( out,
              Texpr.add
                (Texpr.mul (Texpr.var p) (Texpr.int_imm 8))
                (Texpr.var i),
              Texpr.int_imm 1 )))
  in
  check_int "clean" 0 (List.length (Analysis.check_stmt ~params:[ out ] ok))

let test_parallel_fused_divmod_clean () =
  (* the lowered form of a fused parallel loop: f/8 and f mod 8 tile a
     dense output; the analyzer must split f back into coordinates *)
  let out = buf "out" 64 Dtype.I32 in
  let f = Var.create "f" in
  let ix =
    Texpr.add
      (Texpr.mul (Texpr.div (Texpr.var f) (Texpr.int_imm 8)) (Texpr.int_imm 8))
      (Texpr.mod_ (Texpr.var f) (Texpr.int_imm 8))
  in
  let ok =
    Stmt.for_ f ~extent:64 ~kind:Stmt.Parallel (Stmt.Store (out, ix, Texpr.int_imm 1))
  in
  check_int "clean" 0 (List.length (Analysis.check_stmt ~params:[ out ] ok))

(* ---------- carried dependences under vectorize / unroll ---------- *)

let test_vectorized_same_element_flagged () =
  let out = buf "out" 4 Dtype.I32 in
  let x = buf "x" 8 Dtype.I32 in
  let i = Var.create "i" in
  let bad =
    Stmt.for_ i ~extent:8 ~kind:Stmt.Vectorized
      (Stmt.Store (out, Texpr.int_imm 0, Texpr.load x (Texpr.var i)))
  in
  check_bool "carried-dep error" true
    (error_with Diag.Carried_dep (Analysis.check_stmt ~params:[ out; x ] bad))

let test_vectorized_shifted_dep_warned () =
  (* out[i] reads out[i+1]: not provably disjoint across lanes, but not
     provably colliding either -> warning, not error *)
  let out = buf "out" 16 Dtype.I32 in
  let i = Var.create "i" in
  let shifted =
    Stmt.for_ i ~extent:8 ~kind:Stmt.Vectorized
      (Stmt.Store
         ( out,
           Texpr.var i,
           Texpr.load out (Texpr.add (Texpr.var i) (Texpr.int_imm 1)) ))
  in
  let diags = Analysis.check_stmt ~params:[ out ] shifted in
  check_bool "no errors" true (Diag.errors diags = []);
  check_bool "carried-dep warning" true (warning_with Diag.Carried_dep diags)

let test_unrolled_reduction_allowed () =
  (* out[0] += x[i] under unroll is the canonical reduction shape *)
  let out = buf "out" 4 Dtype.I32 in
  let x = buf "x" 8 Dtype.I32 in
  let i = Var.create "i" in
  let reduction =
    Stmt.for_ i ~extent:8 ~kind:Stmt.Unrolled
      (Stmt.Store
         ( out,
           Texpr.int_imm 0,
           Texpr.add (Texpr.load out (Texpr.int_imm 0)) (Texpr.load x (Texpr.var i))
         ))
  in
  check_bool "no carried-dep diagnostics" true
    (List.for_all
       (fun (d : Diag.t) -> d.Diag.rule <> Diag.Carried_dep)
       (Analysis.check_stmt ~params:[ out; x ] reduction))

(* ---------- tensorize legality ---------- *)

let mac_meta ?(operands = [ Dtype.U8; Dtype.I8 ]) ?(accumulates = true) () = function
  | "fake.mac" ->
    Some
      { Analysis.im_spatial = [ ("x", 16) ];
        im_reduce = [ ("r", 4) ];
        im_operands = operands;
        im_accumulates = accumulates
      }
  | _ -> None

let call ?(strides = [ ("x", 1) ]) out =
  Stmt.Intrin_call
    { intrin = "fake.mac";
      output = { Stmt.tile_buf = out; tile_base = Texpr.int_imm 0; tile_strides = strides };
      inputs = []
    }

let test_tile_broadcast_flagged () =
  let out = buf "out" 64 Dtype.I32 in
  check_bool "footprint error" true
    (error_with Diag.Tensorize_footprint
       (Analysis.check_stmt ~intrin:(mac_meta ()) ~params:[ out ]
          (call ~strides:[ ("x", 0) ] out)))

let test_tile_reduction_stride_flagged () =
  let out = buf "out" 64 Dtype.I32 in
  check_bool "footprint error" true
    (error_with Diag.Tensorize_footprint
       (Analysis.check_stmt ~intrin:(mac_meta ()) ~params:[ out ]
          (call ~strides:[ ("x", 1); ("r", 1) ] out)))

let test_non_accumulating_reissue_flagged () =
  (* an enclosing reduction loop re-issues the call over one tile; legal
     only for an accumulating instruction *)
  let out = buf "out" 64 Dtype.I32 in
  let k = Var.create "k" in
  let nest = Stmt.for_ k ~extent:4 (call out) in
  check_bool "flagged when not accumulating" true
    (error_with Diag.Tensorize_footprint
       (Analysis.check_stmt ~intrin:(mac_meta ~accumulates:false ()) ~params:[ out ] nest));
  check_bool "clean when accumulating" true
    (List.for_all
       (fun (d : Diag.t) -> d.Diag.rule <> Diag.Tensorize_footprint)
       (Analysis.check_stmt ~intrin:(mac_meta ()) ~params:[ out ] nest))

let test_intrin_accumulator_overflow_flagged () =
  (* u8*u8 with reduction width 4 overflows an i16 accumulator tile in a
     single issue *)
  let out16 = buf "out16" 64 Dtype.I16 in
  check_bool "overflow error" true
    (error_with Diag.Overflow
       (Analysis.check_stmt
          ~intrin:(mac_meta ~operands:[ Dtype.U8; Dtype.U8 ] ())
          ~params:[ out16 ] (call out16)));
  (* the same issue into i32 is fine *)
  let out32 = buf "out32" 64 Dtype.I32 in
  check_bool "i32 accumulator clean" true
    (List.for_all
       (fun (d : Diag.t) -> not (Diag.is_error d))
       (Analysis.check_stmt
          ~intrin:(mac_meta ~operands:[ Dtype.U8; Dtype.U8 ] ())
          ~params:[ out32 ] (call out32)))

(* The emitted engine indexes instruction tiles without checks, so a
   tuned kernel whose output tile base moves past the end of its buffer
   must be rejected by the same analysis [Pipeline.tensorize] gates on. *)
let test_shifted_output_tile_flagged () =
  let wl = Unit_models.Table1.workloads.(1) in
  let intrin = Unit_isa.Registry.find_exn "vnni.vpdpbusd" in
  match Pipeline.tensorize ~spec:Spec.cascadelake (Pipeline.conv_op intrin wl) intrin with
  | Error f -> Alcotest.failf "legal schedule rejected: %s" (Pipeline.failure_to_string f)
  | Ok c ->
    let tuned = c.Pipeline.c_tuned in
    let rec shift (s : Stmt.t) =
      match s with
      | Stmt.Intrin_call ({ output; _ } as call) ->
        let past = Texpr.int_imm output.Stmt.tile_buf.Buffer.size in
        Stmt.Intrin_call
          { call with output = { output with tile_base = Texpr.add output.Stmt.tile_base past } }
      | _ -> Stmt.map_children shift s
    in
    let func = tuned.Cpu_tuner.t_func in
    let shifted =
      { tuned with Cpu_tuner.t_func = { func with Lower.fn_body = shift func.Lower.fn_body } }
    in
    check_bool "tuned kernel is clean" true (Diag.errors (Pipeline.analyze tuned) = []);
    check_bool "tile error" true (error_with Diag.Tile (Pipeline.analyze shifted))

(* ---------- overflow lint ---------- *)

let test_u8_product_overflow_flagged () =
  (* u8*u8 -> i16: 255*255 = 65025 wraps the i16 product *)
  let out = buf "out16" 16 Dtype.I16 in
  let a = buf "a8" 16 Dtype.U8 in
  let b = buf "b8" 16 Dtype.U8 in
  let i = Var.create "i" in
  let product =
    Texpr.mul
      (Texpr.cast Dtype.I16 (Texpr.load a (Texpr.var i)))
      (Texpr.cast Dtype.I16 (Texpr.load b (Texpr.var i)))
  in
  let bad =
    Stmt.for_ i ~extent:16
      (Stmt.Store (out, Texpr.var i, Texpr.add (Texpr.load out (Texpr.var i)) product))
  in
  check_bool "overflow error" true (error_with Diag.Overflow (Analysis.check_stmt ~params:[ out; a; b ] bad))

let test_u8_i8_into_i32_clean () =
  (* the VNNI dtype discipline: u8*i8 products accumulated in i32 *)
  let out = buf "out32" 16 Dtype.I32 in
  let a = buf "a8" 16 Dtype.U8 in
  let b = buf "b8" 16 Dtype.I8 in
  let i = Var.create "i" in
  let product =
    Texpr.mul
      (Texpr.cast Dtype.I32 (Texpr.load a (Texpr.var i)))
      (Texpr.cast Dtype.I32 (Texpr.load b (Texpr.var i)))
  in
  let ok =
    Stmt.for_ i ~extent:16
      (Stmt.Store (out, Texpr.var i, Texpr.add (Texpr.load out (Texpr.var i)) product))
  in
  check_int "clean" 0 (List.length (Analysis.check_stmt ~params:[ out; a; b ] ok))

let test_narrowing_cast_warned () =
  let out = buf "out8" 16 Dtype.I8 in
  let x = buf "x32" 16 Dtype.I32 in
  let i = Var.create "i" in
  let narrowing =
    Stmt.for_ i ~extent:16
      (Stmt.Store (out, Texpr.var i, Texpr.cast Dtype.I8 (Texpr.load x (Texpr.var i))))
  in
  let diags = Analysis.check_stmt ~params:[ out; x ] narrowing in
  check_bool "no errors" true (Diag.errors diags = []);
  check_bool "overflow warning" true (warning_with Diag.Overflow diags)

let test_in_range_narrowing_clean () =
  (* a cast that the value range proves lossless must stay silent *)
  let out = buf "out8" 16 Dtype.I8 in
  let i = Var.create "i" in
  let ok =
    Stmt.for_ i ~extent:16
      (Stmt.Store (out, Texpr.var i, Texpr.cast Dtype.I8 (Texpr.var i)))
  in
  check_int "clean" 0 (List.length (Analysis.check_stmt ~params:[ out ] ok))

let test_long_accumulation_chain_warned () =
  (* 1000 iterations of +x[i] with x up to 2^15 may exceed i16 capacity:
     surfaced as a warning (data-dependent), not an error *)
  let acc = buf "acc16" 4 Dtype.I16 in
  let x = buf "x16" 1000 Dtype.I16 in
  let i = Var.create "i" in
  let chain =
    Stmt.for_ i ~extent:1000
      (Stmt.Store
         ( acc,
           Texpr.int_imm 0,
           Texpr.add (Texpr.load acc (Texpr.int_imm 0)) (Texpr.load x (Texpr.var i))
         ))
  in
  let diags = Analysis.check_stmt ~params:[ acc; x ] chain in
  check_bool "overflow warning" true (warning_with Diag.Overflow diags)

(* ---------- Pipeline.tensorize gates on analysis errors ---------- *)

let test_tensorize_rejects_nothing_legal () =
  let wl = Unit_models.Table1.workloads.(1) in
  let intrin = Unit_isa.Registry.find_exn "vnni.vpdpbusd" in
  let op = Pipeline.conv_op intrin wl in
  (match Pipeline.tensorize ~spec:Spec.cascadelake op intrin with
   | Ok _ -> ()
   | Error f ->
     Alcotest.failf "legal schedule rejected: %s" (Pipeline.failure_to_string f));
  (* the i16 multiply-add instruction rejects the same u8 conv, and the
     structured failure renders as the Inspector's own text *)
  let vpmaddwd = Unit_isa.Registry.find_exn "avx512.vpmaddwd" in
  match Pipeline.tensorize ~spec:Spec.cascadelake op vpmaddwd with
  | Error (Pipeline.Rejected (Inspector.Not_isomorphic _ as r) as f) ->
    Alcotest.(check string)
      "failure text" (Inspector.rejection_to_string r)
      (Pipeline.failure_to_string f)
  | Error f -> Alcotest.failf "vpmaddwd: unexpected %s" (Pipeline.failure_to_string f)
  | Ok _ -> Alcotest.fail "vpmaddwd accepted a u8 conv"

let () =
  Alcotest.run "analysis"
    [ ( "legal schedules",
        [ Alcotest.test_case "pipeline schedules have no errors" `Quick
            test_pipeline_schedules_clean;
          Alcotest.test_case "every tuner config is legal" `Quick
            test_every_tuner_config_clean;
          Alcotest.test_case "scalar reference" `Quick test_scalar_reference_clean;
          Alcotest.test_case "disjoint parallel writes" `Quick
            test_parallel_disjoint_writes_clean;
          Alcotest.test_case "fused divmod addressing" `Quick
            test_parallel_fused_divmod_clean;
          Alcotest.test_case "unrolled reduction" `Quick test_unrolled_reduction_allowed;
          Alcotest.test_case "tensorize accepts legal conv" `Quick
            test_tensorize_rejects_nothing_legal
        ] );
      ( "races and carried deps",
        [ Alcotest.test_case "parallel overlapping writes" `Quick
            test_parallel_overlapping_writes_flagged;
          Alcotest.test_case "parallel carried accumulation" `Quick
            test_parallel_carried_accumulation_flagged;
          Alcotest.test_case "vectorized same element" `Quick
            test_vectorized_same_element_flagged;
          Alcotest.test_case "vectorized shifted dep warns" `Quick
            test_vectorized_shifted_dep_warned
        ] );
      ( "tensorize legality",
        [ Alcotest.test_case "broadcast output tile" `Quick test_tile_broadcast_flagged;
          Alcotest.test_case "reduction-axis stride" `Quick
            test_tile_reduction_stride_flagged;
          Alcotest.test_case "non-accumulating reissue" `Quick
            test_non_accumulating_reissue_flagged;
          Alcotest.test_case "intrin accumulator overflow" `Quick
            test_intrin_accumulator_overflow_flagged;
          Alcotest.test_case "output tile past its buffer" `Quick
            test_shifted_output_tile_flagged
        ] );
      ( "overflow lint",
        [ Alcotest.test_case "u8 product into i16" `Quick
            test_u8_product_overflow_flagged;
          Alcotest.test_case "u8*i8 into i32" `Quick test_u8_i8_into_i32_clean;
          Alcotest.test_case "narrowing cast" `Quick test_narrowing_cast_warned;
          Alcotest.test_case "provably-in-range cast" `Quick
            test_in_range_narrowing_clean;
          Alcotest.test_case "long accumulation chain" `Quick
            test_long_accumulation_chain_warned
        ] )
    ]
