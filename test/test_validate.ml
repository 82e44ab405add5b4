(* Tests for the checker's well-formedness rules (scope, canonical loops,
   bounds, tiles): well-formed programs from every stage of the pipeline
   must pass; hand-broken programs must be flagged with the right rule. *)

open Unit_dtype
open Unit_dsl
open Unit_tir
module Inspector = Unit_inspector.Inspector
module Reorganize = Unit_rewriter.Reorganize
module Replace = Unit_rewriter.Replace
module Analysis = Unit_analysis.Analysis

let () = Unit_isa.Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let intrin = Unit_core.Pipeline.intrin_meta

let has_rule rule violations =
  List.exists (fun (v : Diag.t) -> v.Diag.rule = rule) violations

let assert_clean ?(what = "program") func =
  let violations = Analysis.check_func ~intrin func in
  if violations <> [] then
    Alcotest.failf "%s: %s" what (String.concat "; " (List.map Diag.to_string violations))

let conv () =
  Op_library.conv2d_nchwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
    ~acc_dtype:Dtype.I32 ~lanes:16 ~reduce_width:4
    { Op_library.in_channels = 8; in_height = 8; in_width = 8; out_channels = 16;
      kernel = 3; stride = 1 }

let test_scalar_reference_valid () =
  assert_clean ~what:"scalar conv" (Lower.scalar_reference (conv ()));
  let mm =
    Op_library.matmul ~n:4 ~m:8 ~k:16 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  assert_clean ~what:"scalar matmul" (Lower.scalar_reference mm)

let test_guarded_schedule_valid () =
  (* a non-exact split: the residue guard must satisfy the bounds check *)
  let op =
    Op_library.matmul ~n:7 ~m:8 ~k:16 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  let s = Schedule.create op in
  let i = List.hd (Schedule.leaves s) in
  let s, _, _ = Schedule.split s i ~factor:3 in
  assert_clean ~what:"guarded split" (Lower.lower s)

let test_without_guard_refinement_out_of_bounds () =
  (* the same program must fail if guards were ignored: prove the
     refinement is load-bearing by checking the raw loop ranges overflow *)
  let op =
    Op_library.matmul ~n:7 ~m:8 ~k:16 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  let s = Schedule.create op in
  let i = List.hd (Schedule.leaves s) in
  let s, _, _ = Schedule.split s i ~factor:3 in
  let func = Lower.lower s in
  (* strip the likely guards *)
  let rec strip stmt =
    match stmt with
    | Stmt.If { likely = true; then_; _ } -> strip then_
    | _ -> Stmt.map_children strip stmt
  in
  let stripped = { func with Lower.fn_body = strip func.Lower.fn_body } in
  let violations = Analysis.check_func ~intrin stripped in
  check_bool "stripped guards overflow" true (has_rule Diag.Bounds violations)

let test_tensorized_valid () =
  let op = conv () in
  match Inspector.inspect op (Unit_isa.Registry.find_exn "vnni.vpdpbusd") with
  | Error _ -> Alcotest.fail "inspect failed"
  | Ok ap ->
    let r = Reorganize.apply op ap () in
    assert_clean ~what:"tensorized conv" (Replace.run (Lower.lower r.Reorganize.schedule));
    (* and with outer tuning applied *)
    let tuned =
      Unit_rewriter.Cpu_tuner.compile r Unit_rewriter.Cpu_tuner.default_config
    in
    assert_clean ~what:"tuned tensorized conv" tuned

let test_unbound_variable_flagged () =
  let buf = Buffer.create ~name:"b" ~dtype:Dtype.I32 ~size:8 () in
  let stray = Var.create "stray" in
  let body = Stmt.Store (buf, Texpr.var stray, Texpr.int_imm ~dtype:Dtype.I32 0) in
  let violations = Analysis.check_stmt ~params:[ buf ] body in
  check_bool "scope violation" true (has_rule Diag.Scope violations)

let test_out_of_bounds_store_flagged () =
  let buf = Buffer.create ~name:"b" ~dtype:Dtype.I32 ~size:8 () in
  let v = Var.create "i" in
  let body =
    Stmt.for_ v ~extent:10 (Stmt.Store (buf, Texpr.var v, Texpr.int_imm ~dtype:Dtype.I32 0))
  in
  let violations = Analysis.check_stmt ~params:[ buf ] body in
  check_int "one violation" 1 (List.length violations);
  check_bool "bounds rule" true ((List.hd violations).Diag.rule = Diag.Bounds)

(* x * 2^30 * 2 wraps to -2^31 in i32 at x = 1, so the store lands at
   b[-2] at run time.  Interval arithmetic that ignores the wrap would
   bound the index to [0, 2] and pass it. *)
let test_wrapping_index_flagged () =
  let buf = Buffer.create ~name:"b" ~dtype:Dtype.I32 ~size:4 () in
  let x = Var.create "x" in
  let i32 n = Texpr.int_imm ~dtype:Dtype.I32 n in
  let index =
    Texpr.div (Texpr.mul (Texpr.mul (Texpr.var x) (i32 1073741824)) (i32 2)) (i32 1073741824)
  in
  let body = Stmt.for_ x ~extent:2 (Stmt.Store (buf, index, i32 7)) in
  let violations = Analysis.check_stmt ~params:[ buf ] body in
  check_bool "bounds rule" true (has_rule Diag.Bounds violations)

let test_buffer_not_in_scope_flagged () =
  let buf = Buffer.create ~name:"b" ~dtype:Dtype.I32 ~size:8 () in
  let other = Buffer.create ~name:"other" ~dtype:Dtype.I32 ~size:8 () in
  let v = Var.create "i" in
  let body =
    Stmt.for_ v ~extent:4 (Stmt.Store (other, Texpr.var v, Texpr.int_imm ~dtype:Dtype.I32 0))
  in
  let violations = Analysis.check_stmt ~params:[ buf ] body in
  check_bool "scope violation" true (has_rule Diag.Scope violations)

let test_alloc_brings_buffer_into_scope () =
  let scratch = Buffer.create ~name:"scratch" ~dtype:Dtype.I32 ~size:4 () in
  let v = Var.create "i" in
  let body =
    Stmt.Alloc
      (scratch,
       Stmt.for_ v ~extent:4
         (Stmt.Store (scratch, Texpr.var v, Texpr.int_imm ~dtype:Dtype.I32 0)))
  in
  check_int "clean" 0 (List.length (Analysis.check_stmt ~params:[] body))

let test_rebound_loop_variable_flagged () =
  let buf = Buffer.create ~name:"b" ~dtype:Dtype.I32 ~size:8 () in
  let v = Var.create "i" in
  let body =
    Stmt.for_ v ~extent:4
      (Stmt.for_ v ~extent:2
         (Stmt.Store (buf, Texpr.var v, Texpr.int_imm ~dtype:Dtype.I32 0)))
  in
  let violations = Analysis.check_stmt ~params:[ buf ] body in
  check_bool "canonical violation" true (has_rule Diag.Canonical violations)

let test_bad_tile_flagged () =
  let op = conv () in
  match Inspector.inspect op (Unit_isa.Registry.find_exn "vnni.vpdpbusd") with
  | Error _ -> Alcotest.fail "inspect failed"
  | Ok ap ->
    let r = Reorganize.apply op ap () in
    let func = Replace.run (Lower.lower r.Reorganize.schedule) in
    (* corrupt: inflate every tile stride so windows overflow *)
    let rec corrupt stmt =
      match stmt with
      | Stmt.Intrin_call { intrin; output; inputs } ->
        let blow tile =
          { tile with
            Stmt.tile_strides =
              List.map (fun (a, s) -> (a, s * 1000)) tile.Stmt.tile_strides
          }
        in
        Stmt.Intrin_call
          { intrin; output = blow output; inputs = List.map (fun (n, t) -> (n, blow t)) inputs }
      | _ -> Stmt.map_children corrupt stmt
    in
    let broken = { func with Lower.fn_body = corrupt func.Lower.fn_body } in
    let violations = Analysis.check_func ~intrin broken in
    check_bool "tile violation" true (has_rule Diag.Tile violations)

let test_unknown_instruction_flagged () =
  let op = conv () in
  match Inspector.inspect op (Unit_isa.Registry.find_exn "vnni.vpdpbusd") with
  | Error _ -> Alcotest.fail "inspect failed"
  | Ok ap ->
    let r = Reorganize.apply op ap () in
    let func = Replace.run (Lower.lower r.Reorganize.schedule) in
    (* without the registry lookup, calls cannot be validated *)
    let violations = Analysis.check_func func in
    check_bool "unknown instruction" true (has_rule Diag.Tile violations)

let test_if_guard_keeps_access_in_bounds () =
  (* buf has 5 elements but the loop runs to 8: only the [i < 5] guard
     makes the store legal, so this passes iff refinement is applied *)
  let buf = Buffer.create ~name:"b" ~dtype:Dtype.I32 ~size:5 () in
  let i = Var.create "i" in
  let store = Stmt.Store (buf, Texpr.var i, Texpr.int_imm ~dtype:Dtype.I32 0) in
  let guarded =
    Stmt.for_ i ~extent:8
      (Stmt.If
         { cond = Texpr.cmp Texpr.Lt (Texpr.var i) (Texpr.int_imm 5);
           likely = false;
           then_ = store;
           else_ = None
         })
  in
  check_int "guarded store is clean" 0
    (List.length (Analysis.check_stmt ~params:[ buf ] guarded));
  let unguarded = Stmt.for_ i ~extent:8 store in
  check_bool "same store without the guard overflows" true
    (has_rule Diag.Bounds (Analysis.check_stmt ~params:[ buf ] unguarded))

let test_tile_window_escape_flagged () =
  (* base is in range, but base + stride * (extent - 1) walks past the
     end of the buffer: the whole register window must be checked *)
  let buf = Buffer.create ~name:"b" ~dtype:Dtype.I32 ~size:10 () in
  let call =
    Stmt.Intrin_call
      { intrin = "vnni.vpdpbusd";
        output =
          { Stmt.tile_buf = buf;
            tile_base = Texpr.int_imm 0;
            (* the i axis has extent 16: window [0, 15] over a 10-element buffer *)
            tile_strides = [ ("i", 1) ]
          };
        inputs = []
      }
  in
  let violations =
    Analysis.check_stmt ~intrin ~params:[ buf ] call
  in
  check_bool "escaping tile window" true (has_rule Diag.Tile violations)

(* property: every random schedule of a matmul lowers to a valid program *)
let prop_random_schedules_validate =
  QCheck.Test.make ~name:"random schedules always lower to valid IR" ~count:60
    QCheck.(list_of_size (Gen.int_range 0 3) (pair (int_range 0 2) (int_range 2 5)))
    (fun splits ->
      let op =
        Op_library.matmul ~n:6 ~m:10 ~k:12 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
          ~acc_dtype:Dtype.I32 ()
      in
      let s =
        List.fold_left
          (fun s (leaf_choice, factor) ->
            let leaves = Schedule.leaves s in
            let target = List.nth leaves (leaf_choice mod List.length leaves) in
            let s, _, _ = Schedule.split s target ~factor in
            s)
          (Schedule.create op) splits
      in
      Analysis.check_func ~intrin (Lower.lower s) = [])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "validate"
    [ ( "valid programs",
        [ Alcotest.test_case "scalar references" `Quick test_scalar_reference_valid;
          Alcotest.test_case "guarded splits" `Quick test_guarded_schedule_valid;
          Alcotest.test_case "tensorized + tuned" `Quick test_tensorized_valid;
          Alcotest.test_case "alloc scoping" `Quick test_alloc_brings_buffer_into_scope
        ]
        @ qcheck [ prop_random_schedules_validate ] );
      ( "violations",
        [ Alcotest.test_case "guards are load-bearing" `Quick
            test_without_guard_refinement_out_of_bounds;
          Alcotest.test_case "unbound variable" `Quick test_unbound_variable_flagged;
          Alcotest.test_case "out of bounds store" `Quick test_out_of_bounds_store_flagged;
          Alcotest.test_case "wrapping index" `Quick test_wrapping_index_flagged;
          Alcotest.test_case "buffer scope" `Quick test_buffer_not_in_scope_flagged;
          Alcotest.test_case "rebound loop var" `Quick test_rebound_loop_variable_flagged;
          Alcotest.test_case "corrupted tiles" `Quick test_bad_tile_flagged;
          Alcotest.test_case "unknown instruction" `Quick test_unknown_instruction_flagged;
          Alcotest.test_case "if-guard refinement" `Quick
            test_if_guard_keeps_access_in_bounds;
          Alcotest.test_case "tile window escape" `Quick test_tile_window_escape_flagged
        ] )
    ]
