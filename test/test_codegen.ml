(* Tests for the codegen substrate: ndarrays and the reference interpreter
   on hand-built tensor-IR programs (not just lowered ones). *)

open Unit_dtype
open Unit_dsl
open Unit_tir
open Unit_isa
open Unit_codegen
module Inspector = Unit_inspector.Inspector
module Reorganize = Unit_rewriter.Reorganize
module Replace = Unit_rewriter.Replace

let () = Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)
let check_int64 = Alcotest.(check int64)

(* ---------- ndarray ---------- *)

let test_ndarray_indexing () =
  let a = Ndarray.init ~dtype:Dtype.I32 ~shape:[ 2; 3; 4 ] (fun ix ->
      Value.of_int Dtype.I32 ((ix.(0) * 100) + (ix.(1) * 10) + ix.(2)))
  in
  check_int64 "get [1;2;3]" 123L (Value.to_int64 (Ndarray.get a [| 1; 2; 3 |]));
  (* flat index of [1;2;3] = 12 + 8 + 3 = 23 *)
  check_int64 "flat 23" 123L (Value.to_int64 (Ndarray.get_flat a 23));
  Ndarray.set a [| 0; 0; 0 |] (Value.of_int Dtype.I32 7);
  check_int64 "set" 7L (Value.to_int64 (Ndarray.get_flat a 0))

let test_ndarray_bounds () =
  let a = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 2; 2 ] in
  (match Ndarray.get a [| 2; 0 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "oob get accepted");
  match Ndarray.get a [| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rank mismatch accepted"

let test_ndarray_equal_and_approx () =
  let mk v = Ndarray.init ~dtype:Dtype.F32 ~shape:[ 3 ] (fun _ -> Value.of_float Dtype.F32 v) in
  check_bool "equal" true (Ndarray.equal (mk 1.5) (mk 1.5));
  check_bool "not equal" false (Ndarray.equal (mk 1.5) (mk 1.6));
  check_bool "approx" true (Ndarray.approx_equal ~tol:0.1 (mk 1.5) (mk 1.55));
  check_bool "approx fails" false (Ndarray.approx_equal ~tol:0.01 (mk 1.5) (mk 1.6))

let test_random_fill_ranges () =
  let t = Unit_dsl.Tensor.create ~name:"r" ~shape:[ 64 ] Dtype.I8 in
  let a = Ndarray.random_for_tensor ~seed:1 t in
  check_bool "i8 fills within [-4,4]" true
    (Ndarray.fold
       (fun ok v -> ok && Int64.abs (Value.to_int64 v) <= 4L)
       true a);
  let b = Ndarray.random_for_tensor ~seed:1 t in
  check_bool "deterministic" true (Ndarray.equal a b);
  let c = Ndarray.random_for_tensor ~seed:2 t in
  check_bool "seed changes data" false (Ndarray.equal a c)

(* The native canonicalizers, [Ndarray.canon]'s table over
   [Unit_emit_hook], against the oracle's boxed rules: [w_*] against
   [Value.of_int]'s wrap, [sat_*] against [Value.cast] from a float (its
   saturating truncation), [trunc]/[trunc64] against [Value.to_int64],
   and [r_bf16] against [Bf16.round_float].  Edge cases, then a seeded
   sweep. *)
let test_canonicalizers_match_oracle () =
  let st = Random.State.make [| 41 |] in
  let any_int () =
    (Random.State.bits st lsl 60) lxor (Random.State.bits st lsl 30) lxor Random.State.bits st
  in
  let any_float () = Int64.float_of_bits (Random.State.int64 st Int64.max_int) in
  let p2 n = Float.ldexp 1.0 n in
  let ints =
    List.concat_map
      (fun b ->
        let x = 1 lsl b in
        [ x - 1; x; x + 1; -x - 1; -x; -x + 1 ])
      [ 0; 7; 8; 15; 16; 31; 32; 62 ]
    @ [ max_int; min_int; 0xff; 0x1ff; 0x17f; 0x8000_0001 ]
    @ List.init 2000 (fun _ -> any_int ())
  in
  let floats =
    List.concat_map
      (fun x -> [ x; -.x ])
      ([ 0.0; 0.5; 0.999; 1.0; 1.5; 127.5; 128.0; 255.5; 256.0; 32767.9; 32768.0;
         Float.infinity; p2 31 -. 1.0; p2 31; p2 31 +. 1.0; p2 32; p2 62; p2 63; p2 64 ]
       @ List.init 1000 (fun _ -> Random.State.float st 5e9)
       @ List.init 1000 (fun _ -> any_float ()))
    @ [ Float.nan ]
  in
  let native = [ Dtype.Bool; Dtype.U8; Dtype.I8; Dtype.I16; Dtype.I32 ] in
  List.iter
    (fun dt ->
      let c = Ndarray.canon dt in
      let name = Dtype.to_string dt in
      Alcotest.(check string) (name ^ " wrap name") ("w_" ^ name) c.Ndarray.wrap_name;
      Alcotest.(check string) (name ^ " sat name") ("sat_" ^ name) c.Ndarray.sat_name;
      List.iter
        (fun x ->
          let want = Int64.to_int (Value.to_int64 (Value.of_int dt x)) in
          if c.Ndarray.wrap x <> want then
            Alcotest.failf "%s %d: wrap gives %d, the oracle %d" c.Ndarray.wrap_name x
              (c.Ndarray.wrap x) want)
        ints;
      List.iter
        (fun f ->
          let want = Int64.to_int (Value.to_int64 (Value.cast dt (Value.of_float Dtype.F64 f))) in
          if c.Ndarray.sat f <> want then
            Alcotest.failf "%s %h: sat gives %d, the oracle %d" c.Ndarray.sat_name f
              (c.Ndarray.sat f) want)
        floats)
    native;
  List.iter
    (fun dt ->
      match Ndarray.canon dt with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s has a narrow canonicalizer" (Dtype.to_string dt))
    (List.filter (fun dt -> not (List.mem dt native)) Dtype.all);
  List.iter
    (fun f ->
      let want = Value.to_int64 (Value.of_float Dtype.F64 f) in
      if Unit_emit_hook.trunc64 f <> want || Unit_emit_hook.trunc f <> Int64.to_int want then
        Alcotest.failf "trunc %h: %Ld / %d, the oracle %Ld" f (Unit_emit_hook.trunc64 f)
          (Unit_emit_hook.trunc f) want)
    floats;
  (* bf16 ties as f32 bit patterns (low 16 bits 0x8000) at either
     parity, the f64 values just past and short of them, subnormals and
     overflow *)
  let tie hi = Int32.float_of_bits (Int32.logor (Int32.shift_left hi 16) 0x8000l) in
  let bf16_inputs =
    List.concat_map
      (fun x -> [ x; -.x ])
      ([ tie 0x3f80l; tie 0x3f81l; tie 0x0l; tie 0x1l; tie 0x7f7fl; tie 0x7f7el;
         tie 0x3f80l +. p2 (-40); tie 0x3f80l -. p2 (-40); tie 0x3f81l +. p2 (-40);
         tie 0x3f81l -. p2 (-40); Float.infinity; p2 (-149); p2 (-133); 1e-40; 3.4e38;
         3.4028234663852886e38; 1e39; 1e300; 0.0; 1.0; Float.pi ]
       @ List.init 1000 (fun _ -> any_float ())
       @ List.init 1000 (fun _ ->
           tie (Random.State.int32 st 0x7f80l) +. (Random.State.float st 2.0 -. 1.0) *. p2 (-30))
      )
    @ [ Float.nan ]
  in
  List.iter
    (fun x ->
      let got = Unit_emit_hook.r_bf16 x and want = Bf16.round_float x in
      if not (Int64.bits_of_float got = Int64.bits_of_float want || (Float.is_nan got && Float.is_nan want))
      then Alcotest.failf "r_bf16 %h: %h, the oracle %h" x got want)
    bf16_inputs;
  (* the unboxed ndarray stores and reads through the same table *)
  let a = Ndarray.zeros ~dtype:Dtype.I16 ~shape:[ 1 ] in
  Ndarray.set_flat a 0 (Value.of_int Dtype.I32 0x18001);
  check_int64 "i16 store wraps" (-32767L) (Value.to_int64 (Ndarray.get_flat a 0));
  let f = Ndarray.zeros ~dtype:Dtype.F64 ~shape:[ 1 ] in
  Ndarray.set_flat f 0 (Value.of_float Dtype.F64 (-2.75));
  Alcotest.(check int) "float storage truncates" (-2) (Ndarray.get_int_flat f 0)

(* ---------- interpreter on hand-built IR ---------- *)

let test_let_and_select () =
  (* out[i] = let t = i * 2 in select(t < 4, t, 100 + t)  for i in 0..3 *)
  let tensor = Unit_dsl.Tensor.create ~name:"o" ~shape:[ 4 ] Dtype.I32 in
  let buf = Buffer.of_tensor tensor in
  let i = Var.create "i" in
  let t = Var.create "t" in
  let body =
    Stmt.for_ i ~extent:4
      (Stmt.Let
         ( t,
           Texpr.mul (Texpr.var i) (Texpr.int_imm 2),
           Stmt.Store
             ( buf,
               Texpr.var i,
               Texpr.select
                 (Texpr.cmp Texpr.Lt (Texpr.var t) (Texpr.int_imm 4))
                 (Texpr.var t)
                 (Texpr.add (Texpr.int_imm 100) (Texpr.var t)) ) ))
  in
  let func =
    { Lower.fn_name = "hand"; fn_tensors = [ (tensor, buf) ]; fn_output = buf;
      fn_iter_vars = []; fn_body = body }
  in
  let out = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 4 ] in
  Interp.run func ~bindings:[ (tensor, out) ];
  check_int64 "i=1 -> 2" 2L (Value.to_int64 (Ndarray.get_flat out 1));
  check_int64 "i=3 -> 106" 106L (Value.to_int64 (Ndarray.get_flat out 3))

let test_alloc_scratch_is_zeroed_and_scoped () =
  (* scratch[0] accumulates inside the loop body; since Alloc re-enters
     each iteration, out[i] sees a fresh zeroed scratch every time *)
  let t = Unit_dsl.Tensor.create ~name:"o" ~shape:[ 3 ] Dtype.I32 in
  let buf = Buffer.of_tensor t in
  let scratch = Buffer.create ~name:"s" ~dtype:Dtype.I32 ~size:1 () in
  let i = Var.create "i" in
  let body =
    Stmt.for_ i ~extent:3
      (Stmt.Alloc
         ( scratch,
           Stmt.seq
             [ Stmt.Store
                 ( scratch,
                   Texpr.int_imm 0,
                   Texpr.add
                     (Texpr.load scratch (Texpr.int_imm 0))
                     (Texpr.add (Texpr.var i) (Texpr.int_imm 1)) );
               Stmt.Store (buf, Texpr.var i, Texpr.load scratch (Texpr.int_imm 0))
             ] ))
  in
  let func =
    { Lower.fn_name = "scratch"; fn_tensors = [ (t, buf) ]; fn_output = buf;
      fn_iter_vars = []; fn_body = body }
  in
  let out = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 3 ] in
  Interp.run func ~bindings:[ (t, out) ];
  check_int64 "fresh scratch each iter: out[2] = 3" 3L
    (Value.to_int64 (Ndarray.get_flat out 2))

(* A call the semantics layer rejects fails the same way on every engine:
   the emitter refuses it and Emit_cache falls back to the closure engine,
   which raises what the tree-walker raises. *)
let test_unregistered_intrinsic_rejected () =
  let t = Unit_dsl.Tensor.create ~name:"o" ~shape:[ 4 ] Dtype.I32 in
  let buf = Buffer.of_tensor t in
  let rejected ~intrin ~strides =
    let tile = { Stmt.tile_buf = buf; tile_base = Texpr.int_imm 0; tile_strides = strides } in
    let func =
      { Lower.fn_name = "bad"; fn_tensors = [ (t, buf) ]; fn_output = buf;
        fn_iter_vars = [];
        fn_body = Stmt.Intrin_call { intrin; output = tile; inputs = [] }
      }
    in
    let raised run =
      match run func ~bindings:[ (t, Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 4 ]) ] with
      | exception e -> Printexc.to_string e
      | () -> Alcotest.failf "%s accepted" intrin
    in
    let interp = raised Interp.run in
    Alcotest.(check string) (intrin ^ ": compiled raises as interp") interp
      (raised Compile.run);
    Alcotest.(check string) (intrin ^ ": emitted raises as interp") interp
      (raised (fun f ~bindings -> Emit_cache.run f ~bindings));
    interp
  in
  let unregistered = rejected ~intrin:"no.such.intrin" ~strides:[] in
  check_bool "unregistered: runtime error" true
    (String.starts_with ~prefix:"Unit_codegen.Interp.Runtime_error" unregistered);
  let unknown_axis =
    rejected ~intrin:Defs.vnni_vpdpbusd.Intrin.name ~strides:[ ("no_such_axis", 1) ]
  in
  check_bool "unknown tile axis: execution error" true
    (String.starts_with ~prefix:"Unit_isa.Semantics.Execution_error" unknown_axis)

(* Lowering negates a float as -0.0 - x, which is Value.neg bit for bit:
   0.0 - x would map +0.0 to +0.0 where Expr.eval gives -0.0. *)
let test_float_neg_signed_zero () =
  let a = Tensor.create ~name:"a" ~shape:[ 4 ] Dtype.F32 in
  let o = Tensor.create ~name:"o" ~shape:[ 4 ] Dtype.F32 in
  let i = Axis.data_parallel ~name:"i" 4 in
  let body = Expr.neg (Expr.access a [ Expr.axis i ]) in
  let op = Op.create ~name:"neg" ~output:o ~spatial:[ i ] body in
  let xs = [| 0.0; -0.0; 1.5; -2.5 |] in
  let arr_a =
    Ndarray.init ~dtype:Dtype.F32 ~shape:[ 4 ] (fun ix -> Value.of_float Dtype.F32 xs.(ix.(0)))
  in
  let out = Ndarray.zeros ~dtype:Dtype.F32 ~shape:[ 4 ] in
  Interp.run_op op ~bindings:[ (a, arr_a); (o, out) ];
  Array.iteri
    (fun k x ->
      let expected =
        Expr.eval ~env:(fun _ -> k) ~load:(fun _ _ -> Value.of_float Dtype.F32 x) body
      in
      check_int64
        (Printf.sprintf "neg %h bits" x)
        (Int64.bits_of_float (Value.to_float expected))
        (Int64.bits_of_float (Value.to_float (Ndarray.get_flat out k))))
    xs

let test_dtype_mismatch_binding_rejected () =
  let t = Unit_dsl.Tensor.create ~name:"o" ~shape:[ 4 ] Dtype.I32 in
  let buf = Buffer.of_tensor t in
  let func =
    { Lower.fn_name = "m"; fn_tensors = [ (t, buf) ]; fn_output = buf;
      fn_iter_vars = []; fn_body = Stmt.Nop }
  in
  let wrong = Ndarray.zeros ~dtype:Dtype.F32 ~shape:[ 4 ] in
  match Interp.run func ~bindings:[ (t, wrong) ] with
  | exception Interp.Runtime_error e ->
    Alcotest.(check string) "error text" "buffer o: dtype mismatch (fp32 vs i32)" e
  | () -> Alcotest.fail "dtype mismatch accepted"

(* ---------- compiled fast path vs tree-walker ---------- *)

(* Run [func] under both engines on identical inputs; the outputs must be
   bit-identical, not merely close. *)
let engines_agree op func =
  let inputs =
    List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:17 t)) (Op.inputs op)
  in
  let out_interp = Ndarray.of_tensor_zeros op.Op.output in
  let out_compiled = Ndarray.of_tensor_zeros op.Op.output in
  Interp.run func ~bindings:((op.Op.output, out_interp) :: inputs);
  Compile.run func ~bindings:((op.Op.output, out_compiled) :: inputs);
  Ndarray.equal out_interp out_compiled

(* property: on random split matmuls (non-divisor factors produce guarded
   residue bodies) the compiled interpreter is bit-identical to the
   tree-walker *)
let prop_compiled_matches_tree_walker =
  QCheck.Test.make ~name:"compiled engine matches tree-walker on split matmuls"
    ~count:25
    QCheck.(
      quad (int_range 1 5) (* n *)
        (int_range 1 8) (* m *)
        (int_range 2 12) (* k *)
        (pair (int_range 0 7) (int_range 0 2)) (* split factor seed, leaf *))
    (fun (n, m, k, (fseed, leaf)) ->
      let op =
        Op_library.matmul ~n ~m ~k ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
          ~acc_dtype:Dtype.I32 ()
      in
      let s = Schedule.create op in
      let it = List.nth (Schedule.leaves s) leaf in
      let s =
        if it.Schedule.Iter.extent >= 2 then begin
          (* factor in 2..extent; frequently a non-divisor *)
          let factor = 2 + (fseed mod (it.Schedule.Iter.extent - 1)) in
          let s, _, _ = Schedule.split s it ~factor in
          s
        end
        else s
      in
      engines_agree op (Lower.lower s))

(* property: same bit-identity through the full tensorize pipeline, so the
   compiled path executes Intrin_calls (and residue guards around them)
   exactly like the tree-walker *)
let prop_compiled_matches_tree_walker_tensorized =
  QCheck.Test.make
    ~name:"compiled engine matches tree-walker on tensorized convs" ~count:10
    QCheck.(
      quad (int_range 1 2) (* c_outer *)
        (int_range 1 2) (* k_outer *)
        (int_range 4 7) (* input hw *)
        (pair (int_range 1 3) (int_range 1 2)) (* kernel, stride *))
    (fun (co, ko, hw, (kernel, stride)) ->
      QCheck.assume (hw >= kernel);
      let op =
        Op_library.conv2d_nchwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
          ~acc_dtype:Dtype.I32 ~lanes:16 ~reduce_width:4
          { Op_library.in_channels = co * 4; in_height = hw; in_width = hw;
            out_channels = ko * 16; kernel; stride }
      in
      match Inspector.inspect op Defs.vnni_vpdpbusd with
      | Error _ -> false
      | Ok ap ->
        let r = Reorganize.apply op ap () in
        let s = r.Reorganize.schedule in
        (* split an outer loop by a (possibly non-dividing) factor so residue
           guards appear around the intrinsic call *)
        let s =
          match
            List.find_opt
              (fun (it : Schedule.Iter.t) -> it.extent >= 3)
              r.Reorganize.outer
          with
          | Some it ->
            let s, _, _ = Schedule.split s it ~factor:2 in
            s
          | None -> s
        in
        engines_agree op (Replace.run (Lower.lower s)))

(* ---------- tracing transparency (lib/obs) ---------- *)

module Obs = Unit_obs.Obs

(* Recorded span trees must be well-formed: every span closed, and every
   child's interval nested within its parent's (same domain). *)
let spans_well_formed () =
  let sps = Obs.spans () in
  List.for_all
    (fun (sp : Obs.span_record) ->
      Obs.span_closed sp
      && (sp.Obs.sp_parent < 0
          || List.exists
               (fun (p : Obs.span_record) ->
                 p.Obs.sp_domain = sp.Obs.sp_domain
                 && p.Obs.sp_id = sp.Obs.sp_parent
                 && p.Obs.sp_begin <= sp.Obs.sp_begin
                 && sp.Obs.sp_end <= p.Obs.sp_end)
               sps))
    sps

(* property: enabling the tracing layer changes nothing about compiled
   execution — outputs stay bit-identical to the untraced run and to the
   tree-walker — and the spans it records form a well-formed tree *)
let prop_tracing_transparent =
  QCheck.Test.make
    ~name:"tracing leaves compiled outputs bit-identical, spans well-formed"
    ~count:15
    QCheck.(
      quad (int_range 1 5) (* n *)
        (int_range 1 8) (* m *)
        (int_range 2 12) (* k *)
        (pair (int_range 0 7) (int_range 0 2)) (* split factor seed, leaf *))
    (fun (n, m, k, (fseed, leaf)) ->
      let op =
        Op_library.matmul ~n ~m ~k ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
          ~acc_dtype:Dtype.I32 ()
      in
      let s = Schedule.create op in
      let it = List.nth (Schedule.leaves s) leaf in
      let s =
        if it.Schedule.Iter.extent >= 2 then begin
          let factor = 2 + (fseed mod (it.Schedule.Iter.extent - 1)) in
          let s, _, _ = Schedule.split s it ~factor in
          s
        end
        else s
      in
      let func = Lower.lower s in
      let inputs =
        List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:23 t)) (Op.inputs op)
      in
      let run exec =
        let out = Ndarray.of_tensor_zeros op.Op.output in
        exec func ~bindings:((op.Op.output, out) :: inputs);
        out
      in
      let out_plain = run Compile.run in
      let out_interp = run Interp.run in
      Obs.reset ();
      Obs.set_enabled true;
      let out_traced =
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () -> run Compile.run)
      in
      let wf = spans_well_formed () in
      let recorded =
        List.exists
          (fun (sp : Obs.span_record) -> sp.Obs.sp_name = "codegen.compile")
          (Obs.spans ())
      in
      Obs.reset ();
      Ndarray.equal out_plain out_traced
      && Ndarray.equal out_interp out_traced
      && wf && recorded)

(* A freshly registered ISA runs through the compiled engine with no code
   added anywhere: Intrin_call execution is driven by the DSL description. *)
let test_fresh_isa_runs_compiled () =
  let intrin_op =
    let a = Tensor.create ~name:"a" ~shape:[ 4 ] Dtype.I8 in
    let b = Tensor.create ~name:"b" ~shape:[ 4 ] Dtype.I8 in
    let c = Tensor.create ~name:"c" ~shape:[ 2 ] Dtype.I32 in
    let d = Tensor.create ~name:"d" ~shape:[ 2 ] Dtype.I32 in
    let i = Axis.data_parallel ~name:"i" 2 in
    let j = Axis.reduction ~name:"j" 2 in
    let ix = Expr.add (Expr.mul (Expr.axis i) (Expr.int_imm 2)) (Expr.axis j) in
    Op.create ~name:"toy" ~output:d ~spatial:[ i ] ~reduce:[ j ]
      ~init:(Op.Init_tensor c)
      (Expr.mul
         (Expr.cast Dtype.I32 (Expr.access a [ ix ]))
         (Expr.cast Dtype.I32 (Expr.access b [ ix ])))
  in
  let toy =
    Intrin.create ~name:"toy.compiled.dot2" ~llvm_name:"llvm.toy.dot2"
      ~platform:Intrin.X86
      ~cost:{ latency = 2; throughput = 1.0; macs = 4 }
      intrin_op
  in
  Registry.register toy;
  Fun.protect
    ~finally:(fun () -> Registry.reset_for_testing ())
    (fun () ->
      let ta = Tensor.create ~name:"ra" ~shape:[ 12 ] Dtype.I8 in
      let tb = Tensor.create ~name:"rb" ~shape:[ 12 ] Dtype.I8 in
      let tc = Tensor.create ~name:"rc" ~shape:[ 6 ] Dtype.I32 in
      let td = Tensor.create ~name:"rd" ~shape:[ 6 ] Dtype.I32 in
      let ba = Buffer.of_tensor ta and bb = Buffer.of_tensor tb in
      let bc = Buffer.of_tensor tc and bd = Buffer.of_tensor td in
      let dense base buf =
        { Stmt.tile_buf = buf; tile_base = base; tile_strides = [ ("i", 2); ("j", 1) ] }
      in
      let lane base buf =
        { Stmt.tile_buf = buf; tile_base = base; tile_strides = [ ("i", 1) ] }
      in
      let call ~dense_base ~lane_base =
        Stmt.Intrin_call
          { intrin = "toy.compiled.dot2"; output = lane lane_base bd;
            inputs =
              [ ("a", dense dense_base ba); ("b", dense dense_base bb);
                ("c", lane lane_base bc) ]
          }
      in
      (* the second call's tile bases depend on the enclosing loop *)
      let n = Var.create "n" in
      let from k stride =
        Texpr.add (Texpr.int_imm k) (Texpr.mul (Texpr.var n) (Texpr.int_imm stride))
      in
      let func =
        { Lower.fn_name = "fresh_isa";
          fn_tensors = [ (ta, ba); (tb, bb); (tc, bc); (td, bd) ];
          fn_output = bd; fn_iter_vars = [];
          fn_body =
            Stmt.seq
              [ call ~dense_base:(Texpr.int_imm 0) ~lane_base:(Texpr.int_imm 0);
                Stmt.for_ n ~extent:2 (call ~dense_base:(from 4 4) ~lane_base:(from 2 2))
              ]
        }
      in
      let arr_a =
        Ndarray.init ~dtype:Dtype.I8 ~shape:[ 12 ] (fun ix ->
            Value.of_int Dtype.I8 (ix.(0) + 1))
      in
      let arr_b =
        Ndarray.init ~dtype:Dtype.I8 ~shape:[ 12 ] (fun ix ->
            Value.of_int Dtype.I8 (ix.(0) + 2))
      in
      let arr_c =
        Ndarray.init ~dtype:Dtype.I32 ~shape:[ 6 ] (fun ix ->
            Value.of_int Dtype.I32 (100 * (ix.(0) + 1)))
      in
      let bindings out = [ (ta, arr_a); (tb, arr_b); (tc, arr_c); (td, out) ] in
      let out_compiled = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 6 ] in
      Compile.run func ~bindings:(bindings out_compiled);
      (* d[i] = c[i] + a[2i]*b[2i] + a[2i+1]*b[2i+1] *)
      check_int64 "d[0]" (Int64.of_int ((100 + (1 * 2)) + (2 * 3)))
        (Value.to_int64 (Ndarray.get_flat out_compiled 0));
      check_int64 "d[1]" (Int64.of_int ((200 + (3 * 4)) + (4 * 5)))
        (Value.to_int64 (Ndarray.get_flat out_compiled 1));
      check_int64 "d[5] (loop-dependent bases)" (Int64.of_int ((600 + (11 * 12)) + (12 * 13)))
        (Value.to_int64 (Ndarray.get_flat out_compiled 5));
      let out_interp = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 6 ] in
      Interp.run func ~bindings:(bindings out_interp);
      check_bool "engines agree on fresh ISA" true
        (Ndarray.equal out_interp out_compiled);
      (* where the toolchain allows, the emitter takes the call itself
         rather than falling back *)
      (match Emit_cache.available () with
       | Ok () ->
         check_bool "emitter accepts the fresh ISA" true
           (Emit_cache.prepare ~signature:"test|fresh_isa" func = Ok ())
       | Error _ -> ());
      let out_emitted = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 6 ] in
      Emit_cache.run func ~bindings:(bindings out_emitted);
      check_bool "emitted engine agrees on fresh ISA" true
        (Ndarray.equal out_interp out_emitted))

(* One binding rule on all three engines: a bad binding raises the same
   text from the tree-walker, the closure engine and the emitted engine,
   whose run falls back with that text as its reason; of two bindings of
   one tensor the first wins everywhere. *)
let test_bad_bindings_same_text () =
  let o = Tensor.create ~name:"o" ~shape:[ 4 ] Dtype.I32 in
  let a = Tensor.create ~name:"a" ~shape:[ 4 ] Dtype.I32 in
  let bo = Buffer.of_tensor o and ba = Buffer.of_tensor a in
  let i = Var.create "i" in
  let func =
    { Lower.fn_name = "bind_rule"; fn_tensors = [ (o, bo); (a, ba) ]; fn_output = bo;
      fn_iter_vars = [ (0, i) ];
      fn_body =
        Stmt.for_ i ~extent:4
          (Stmt.Store
             (bo, Texpr.var i, Texpr.add (Texpr.load ba (Texpr.var i)) (Texpr.int_imm 1)))
    }
  in
  let mentions s sub =
    let n = String.length sub in
    let rec go k = k + n <= String.length s && (String.sub s k n = sub || go (k + 1)) in
    go 0
  in
  let emit_available = Result.is_ok (Emit_cache.available ()) in
  let run engine bindings =
    match engine func ~bindings with
    | () -> None
    | exception Interp.Runtime_error e -> Some e
  in
  let good () = Ndarray.init ~dtype:Dtype.I32 ~shape:[ 4 ] (fun ix -> Value.of_int Dtype.I32 ix.(0)) in
  let rejects label bindings expected =
    let out = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 4 ] in
    let bindings = (o, out) :: bindings in
    let text = Alcotest.(check (option string)) in
    text (label ^ ": tree-walker") (Some expected) (run Interp.run bindings);
    text (label ^ ": closure engine") (Some expected) (run Compile.run bindings);
    text (label ^ ": emitted engine")
      (Some expected)
      (run (Emit_cache.run ~signature:"test|bind_rule") bindings);
    if emit_available then
      match Emit_cache.last_fallback () with
      | Some d -> check_bool (label ^ ": fallback reason") true (mentions d.Diag.detail expected)
      | None -> Alcotest.fail (label ^ ": no fallback diagnostic")
  in
  rejects "missing" [] "tensor a not bound";
  rejects "dtype" [ (a, Ndarray.zeros ~dtype:Dtype.F32 ~shape:[ 4 ]) ]
    "buffer a: dtype mismatch (fp32 vs i32)";
  rejects "count" [ (a, Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 5 ]) ]
    "buffer a: 5 elements bound, 4 expected";
  rejects "first of two wins" [ (a, Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 2 ]); (a, good ()) ]
    "buffer a: 2 elements bound, 4 expected";
  let expected = Ndarray.init ~dtype:Dtype.I32 ~shape:[ 4 ] (fun ix -> Value.of_int Dtype.I32 (ix.(0) + 1)) in
  List.iter
    (fun (label, engine) ->
      let out = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 4 ] in
      let bindings = [ (o, out); (a, good ()); (a, Ndarray.zeros ~dtype:Dtype.F32 ~shape:[ 4 ]) ] in
      Alcotest.(check (option string)) (label ^ ": the first binding runs") None (run engine bindings);
      check_bool (label ^ ": output") true (Ndarray.equal expected out))
    [ ("tree-walker", Interp.run); ("closure engine", Compile.run);
      ("emitted engine", Emit_cache.run ~signature:"test|bind_rule") ];
  (* the closure engine addresses arrays from 0, so it refuses a view *)
  let arena = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 8 ] in
  Alcotest.(check (option string)) "view: closure engine"
    (Some "buffer a: arena views cannot be bound to compiled kernels")
    (run Compile.run
       [ (o, Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 4 ]);
         (a, Ndarray.view arena ~offset:2 ~dtype:Dtype.I32 ~shape:[ 4 ]) ])

(* property: integer expression evaluation agrees with OCaml arithmetic *)
let prop_expr_eval_matches_native =
  QCheck.Test.make ~name:"Texpr evaluation matches native arithmetic" ~count:300
    QCheck.(triple (int_range (-1000) 1000) (int_range (-1000) 1000) (int_range 1 50))
    (fun (x, y, d) ->
      let env = Interp.env_empty () in
      let vx = Var.create "x" and vy = Var.create "y" in
      Interp.env_bind_var env vx x;
      Interp.env_bind_var env vy y;
      let e =
        Texpr.add
          (Texpr.mul (Texpr.var vx) (Texpr.int_imm 3))
          (Texpr.div (Texpr.var vy) (Texpr.int_imm d))
      in
      let expected = (x * 3) + (y / d) in
      Value.to_int64 (Interp.eval_expr env e) = Int64.of_int expected)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "codegen"
    [ ( "ndarray",
        [ Alcotest.test_case "indexing" `Quick test_ndarray_indexing;
          Alcotest.test_case "bounds" `Quick test_ndarray_bounds;
          Alcotest.test_case "equality" `Quick test_ndarray_equal_and_approx;
          Alcotest.test_case "random fills" `Quick test_random_fill_ranges;
          Alcotest.test_case "canonicalizers = oracle" `Quick
            test_canonicalizers_match_oracle
        ] );
      ( "interpreter",
        [ Alcotest.test_case "let and select" `Quick test_let_and_select;
          Alcotest.test_case "alloc scoping" `Quick test_alloc_scratch_is_zeroed_and_scoped;
          Alcotest.test_case "unknown intrinsic" `Quick test_unregistered_intrinsic_rejected;
          Alcotest.test_case "float neg of signed zeros" `Quick test_float_neg_signed_zero;
          Alcotest.test_case "binding dtype mismatch" `Quick
            test_dtype_mismatch_binding_rejected
        ]
        @ qcheck [ prop_expr_eval_matches_native ] );
      ( "compiled",
        [ Alcotest.test_case "fresh ISA runs compiled" `Quick
            test_fresh_isa_runs_compiled;
          Alcotest.test_case "bad bindings rejected" `Quick
            test_bad_bindings_same_text
        ]
        @ qcheck
            [ prop_compiled_matches_tree_walker;
              prop_compiled_matches_tree_walker_tensorized;
              prop_tracing_transparent
            ] )
    ]
