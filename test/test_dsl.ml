(* Tests for the tensor DSL: expression building and typing, the tensor Op
   structure, operator builders, and schedule transformations. *)

open Unit_dtype
open Unit_dsl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- Expr ---------- *)

let test_expr_dtypes () =
  let t = Tensor.create ~name:"t" ~shape:[ 4; 4 ] Dtype.I8 in
  let i = Axis.data_parallel ~name:"i" 4 in
  let e = Expr.access t [ Expr.axis i; Expr.int_imm 0 ] in
  check_string "access dtype" "i8" (Dtype.to_string (Expr.dtype_of e));
  let e32 = Expr.cast Dtype.I32 e in
  check_string "cast dtype" "i32" (Dtype.to_string (Expr.dtype_of e32));
  check_string "axis dtype" "i32" (Dtype.to_string (Expr.dtype_of (Expr.axis i)))

let test_expr_type_errors () =
  let t = Tensor.create ~shape:[ 4 ] Dtype.I8 in
  (match Expr.access t [ Expr.int_imm 0; Expr.int_imm 1 ] with
   | exception Expr.Type_error _ -> ()
   | _ -> Alcotest.fail "rank mismatch accepted");
  (match Expr.add (Expr.int_imm 1) (Expr.float_imm 1.0) with
   | exception Expr.Type_error _ -> ()
   | _ -> Alcotest.fail "mixed dtype add accepted");
  match Expr.access t [ Expr.float_imm 0.0 ] with
  | exception Expr.Type_error _ -> ()
  | _ -> Alcotest.fail "float index accepted"

let test_expr_cast_elision () =
  let e = Expr.int_imm ~dtype:Dtype.I32 5 in
  check_bool "identity cast elided" true (Expr.equal_structural e (Expr.cast Dtype.I32 e))

let test_axes_and_tensors_of () =
  let a = Tensor.create ~name:"a" ~shape:[ 8 ] Dtype.I8 in
  let b = Tensor.create ~name:"b" ~shape:[ 8 ] Dtype.I8 in
  let i = Axis.data_parallel ~name:"i" 8 in
  let j = Axis.reduction ~name:"j" 2 in
  let idx = Expr.add (Expr.axis i) (Expr.axis j) in
  let e =
    Expr.mul
      (Expr.cast Dtype.I32 (Expr.access a [ idx ]))
      (Expr.cast Dtype.I32 (Expr.access b [ Expr.axis i ]))
  in
  check_int "two axes" 2 (List.length (Expr.axes_of e));
  check_int "two tensors" 2 (List.length (Expr.tensors_of e));
  check_int "two accesses" 2 (List.length (Expr.accesses_of e));
  let use_a = Expr.cast Dtype.I32 (Expr.access a [ Expr.axis i ]) in
  check_int "dedup tensors" 1 (List.length (Expr.tensors_of (Expr.add use_a use_a)))

let test_expr_eval () =
  let a = Tensor.create ~name:"a" ~shape:[ 8 ] Dtype.I32 in
  let i = Axis.data_parallel ~name:"i" 8 in
  let e =
    Expr.add
      (Expr.mul (Expr.access a [ Expr.axis i ]) (Expr.int_imm ~dtype:Dtype.I32 3))
      (Expr.int_imm ~dtype:Dtype.I32 1)
  in
  let v =
    Expr.eval
      ~env:(fun ax -> if Axis.equal ax i then 2 else Alcotest.fail "unknown axis")
      ~load:(fun _ idx -> Value.of_int Dtype.I32 (10 + idx.(0)))
      e
  in
  Alcotest.(check int64) "3*(10+2)+1" 37L (Value.to_int64 v)

let test_substitute_axes () =
  let i = Axis.data_parallel ~name:"i" 8 in
  let j = Axis.reduction ~name:"j" 2 in
  let e = Expr.add (Expr.axis i) (Expr.axis j) in
  let e' = Expr.substitute_axes [ (i, Expr.int_imm 7) ] e in
  check_string "substituted" "(7i32 + j)" (Expr.to_string e')

let test_expr_traversals () =
  let t = Tensor.create ~name:"t" ~shape:[ 4; 4 ] Dtype.I8 in
  let i = Expr.axis (Axis.data_parallel ~name:"i" 4)
  and j = Expr.axis (Axis.reduction ~name:"j" 4) in
  let a = Expr.access t [ i; j ] in
  let w = Expr.cast Dtype.I32 a in
  (* one node per constructor, with its immediate children in source order *)
  List.iter
    (fun (name, e, children) ->
      check_bool (name ^ ": identity map") true
        (Expr.equal_structural e (Expr.map_children Fun.id e));
      let seen = List.rev (Expr.fold_children (fun acc c -> c :: acc) [] e) in
      check_bool (name ^ ": fold in source order") true
        (List.length seen = List.length children
        && List.for_all2 Expr.equal_structural seen children))
    [ ("imm", Expr.int_imm 3, []);
      ("axis", i, []);
      ("access", a, [ i; j ]);
      ("cast", w, [ a ]);
      ("binop", Expr.sub w i, [ w; i ]);
      ("neg", Expr.neg i, [ i ]) ];
  (* the rebuild goes through the smart constructors *)
  let to_i32 c = if Expr.equal_structural c a then Expr.int_imm 5 else c in
  check_bool "same-dtype cast vanishes" true
    (Expr.equal_structural (Expr.int_imm 5) (Expr.map_children to_i32 w));
  match Expr.map_children (fun c -> if Expr.equal_structural c w then a else c) (Expr.sub w i) with
  | exception Expr.Type_error _ -> ()
  | _ -> Alcotest.fail "rebuilt binop skipped the dtype check"

(* ---------- Op ---------- *)

let mk_matmul () =
  Op_library.matmul ~n:4 ~m:8 ~k:16 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
    ~acc_dtype:Dtype.I32 ()

let test_op_validation () =
  let out = Tensor.create ~name:"o" ~shape:[ 4 ] Dtype.I32 in
  let i = Axis.data_parallel ~name:"i" 4 in
  let bad_axis = Axis.reduction ~name:"r" 4 in
  (match Op.create ~output:out ~spatial:[ bad_axis ] (Expr.int_imm 0) with
   | exception Op.Invalid_op _ -> ()
   | _ -> Alcotest.fail "reduction as spatial accepted");
  let wrong = Axis.data_parallel ~name:"i" 5 in
  (match Op.create ~output:out ~spatial:[ wrong ] (Expr.int_imm 0) with
   | exception Op.Invalid_op _ -> ()
   | _ -> Alcotest.fail "extent mismatch accepted");
  (match Op.create ~output:out ~spatial:[ i ] (Expr.float_imm 0.0) with
   | exception Op.Invalid_op _ -> ()
   | _ -> Alcotest.fail "dtype mismatch accepted");
  let stray = Axis.reduction ~name:"s" 3 in
  match Op.create ~output:out ~spatial:[ i ] (Expr.axis stray) with
  | exception Op.Invalid_op _ -> ()
  | _ -> Alcotest.fail "undeclared axis accepted"

let test_op_metadata () =
  let op = mk_matmul () in
  check_int "macs" (4 * 8 * 16) (Op.macs op);
  check_bool "has reduction" true (Op.has_reduction op);
  check_int "inputs" 2 (List.length (Op.inputs op));
  check_int "axes" 3 (List.length (Op.all_axes op))

let test_conv_shapes () =
  let spec =
    { Op_library.in_channels = 8; in_height = 9; in_width = 9; out_channels = 16;
      kernel = 3; stride = 2 }
  in
  check_int "out height" 4 (Op_library.out_height spec);
  let op =
    Op_library.conv2d_nchwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ~lanes:16 ~reduce_width:4 spec
  in
  check_int "spatial axes" 4 (List.length op.Op.spatial);
  check_int "reduce axes" 4 (List.length op.Op.reduce);
  check_int "output elems" (1 * 4 * 4 * 16) (Tensor.num_elements op.Op.output);
  match
    Op_library.conv2d_nchwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ~lanes:5 ~reduce_width:4 spec
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-dividing lanes accepted"

(* ---------- Schedule ---------- *)

let leaf_names s = List.map (fun (it : Schedule.Iter.t) -> it.name) (Schedule.leaves s)

let three_leaves s =
  match Schedule.leaves s with
  | [ i; j; k ] -> (i, j, k)
  | _ -> Alcotest.fail "expected 3 leaves"

let test_split () =
  let s = Schedule.create (mk_matmul ()) in
  let _, j, _ = three_leaves s in
  let s, jo, ji = Schedule.split s j ~factor:4 in
  check_int "outer extent" 2 jo.Schedule.Iter.extent;
  check_int "inner extent" 4 ji.Schedule.Iter.extent;
  Alcotest.(check (list string)) "leaf order" [ "i"; "j.o"; "j.i"; "k" ] (leaf_names s)

let test_split_non_dividing () =
  let s = Schedule.create (mk_matmul ()) in
  let i, _, _ = three_leaves s in
  let s, io, _ii = Schedule.split s i ~factor:3 in
  check_int "ceil(4/3)" 2 io.Schedule.Iter.extent;
  check_bool "axis needs guard" true
    (Schedule.axis_needs_guard s (List.hd (Schedule.op s).Op.spatial))

let test_reorder () =
  let s = Schedule.create (mk_matmul ()) in
  let i, _, k = three_leaves s in
  let s = Schedule.reorder s [ k; i ] in
  Alcotest.(check (list string)) "k and i swapped" [ "k"; "j"; "i" ] (leaf_names s)

let test_fuse () =
  let s = Schedule.create (mk_matmul ()) in
  let i, j, _ = three_leaves s in
  let s, fused = Schedule.fuse s i j in
  check_int "fused extent" 32 fused.Schedule.Iter.extent;
  check_int "two leaves" 2 (List.length (Schedule.leaves s))

let test_fuse_errors () =
  let s = Schedule.create (mk_matmul ()) in
  let i, j, k = three_leaves s in
  (match Schedule.fuse s i k with
   | exception Schedule.Schedule_error _ -> ()
   | _ -> Alcotest.fail "non-adjacent fuse accepted");
  match Schedule.fuse s j k with
  | exception Schedule.Schedule_error _ -> ()
  | _ -> Alcotest.fail "cross-kind fuse accepted"

let test_annotate_reduction_parallel_rejected () =
  let s = Schedule.create (mk_matmul ()) in
  let _, _, k = three_leaves s in
  match Schedule.annotate s k Schedule.Parallel with
  | exception Schedule.Schedule_error _ -> ()
  | _ -> Alcotest.fail "parallel reduction accepted"

let test_leaf_coefficient () =
  let s = Schedule.create (mk_matmul ()) in
  let _, j, _ = three_leaves s in
  let s, jo, ji = Schedule.split s j ~factor:4 in
  let j_axis = List.nth (Schedule.op s).Op.spatial 1 in
  check_bool "outer coeff 4" true (Schedule.leaf_coefficient s j_axis jo = Some 4);
  check_bool "inner coeff 1" true (Schedule.leaf_coefficient s j_axis ji = Some 1);
  let i_axis = List.hd (Schedule.op s).Op.spatial in
  check_bool "independent" true (Schedule.leaf_coefficient s i_axis ji = Some 0)

let test_split_then_split () =
  let s = Schedule.create (mk_matmul ()) in
  let _, _, k = three_leaves s in
  let s, _ko, ki = Schedule.split s k ~factor:8 in
  let s, _kio, kii = Schedule.split s ki ~factor:2 in
  let k_axis = List.hd (Schedule.op s).Op.reduce in
  check_bool "nested inner coeff" true (Schedule.leaf_coefficient s k_axis kii = Some 1);
  check_int "five leaves" 5 (List.length (Schedule.leaves s))

let test_tensorize_annotation_round_trip () =
  let s = Schedule.create (mk_matmul ()) in
  let _, j, _ = three_leaves s in
  let info =
    { Schedule.intrin_name = "vnni.vpdpbusd";
      axis_binding = [ ("i", j.Schedule.Iter.id) ];
      operand_binding = []
    }
  in
  let s = Schedule.annotate s j (Schedule.Tensorize info) in
  match Schedule.annotation s j with
  | Schedule.Tensorize info' ->
    check_string "intrin name kept" "vnni.vpdpbusd" info'.Schedule.intrin_name
  | _ -> Alcotest.fail "annotation lost"

(* Splitting can only grow the iteration domain (ceil division); fusing
   preserves it exactly. *)
let prop_split_grows_domain =
  QCheck.Test.make ~name:"splits never shrink the iteration domain" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 4) (int_range 2 5))
    (fun factors ->
      let op = mk_matmul () in
      let s = Schedule.create op in
      let s =
        List.fold_left
          (fun s f ->
            let target = List.hd (Schedule.leaves s) in
            let s, _, _ = Schedule.split s target ~factor:f in
            s)
          s factors
      in
      let domain =
        List.fold_left (fun acc (it : Schedule.Iter.t) -> acc * it.extent) 1
          (Schedule.leaves s)
      in
      domain >= Op.macs op)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dsl"
    [ ( "expr",
        [ Alcotest.test_case "dtypes" `Quick test_expr_dtypes;
          Alcotest.test_case "type errors" `Quick test_expr_type_errors;
          Alcotest.test_case "cast elision" `Quick test_expr_cast_elision;
          Alcotest.test_case "axes/tensors of" `Quick test_axes_and_tensors_of;
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "substitute axes" `Quick test_substitute_axes;
          Alcotest.test_case "child traversals" `Quick test_expr_traversals
        ] );
      ( "op",
        [ Alcotest.test_case "validation" `Quick test_op_validation;
          Alcotest.test_case "metadata" `Quick test_op_metadata;
          Alcotest.test_case "conv builders" `Quick test_conv_shapes
        ] );
      ( "schedule",
        [ Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "split non-dividing" `Quick test_split_non_dividing;
          Alcotest.test_case "reorder" `Quick test_reorder;
          Alcotest.test_case "fuse" `Quick test_fuse;
          Alcotest.test_case "fuse errors" `Quick test_fuse_errors;
          Alcotest.test_case "no parallel reductions" `Quick
            test_annotate_reduction_parallel_rejected;
          Alcotest.test_case "leaf coefficients" `Quick test_leaf_coefficient;
          Alcotest.test_case "nested splits" `Quick test_split_then_split;
          Alcotest.test_case "tensorize annotation" `Quick
            test_tensorize_annotation_round_trip
        ]
        @ qcheck [ prop_split_grows_domain ] )
    ]
