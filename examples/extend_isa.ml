(* Extensibility (Section VI-C): integrating a brand-new tensorized
   instruction is one registry call with a tensor-DSL description — the
   Inspector, Rewriter, tuner and interpreter all pick it up with zero
   further changes.

   We invent "riscv.vqdot": a hypothetical RISC-V vector quad-dot-product
   with 8 lanes of i8 x i8 -> i32, each reducing 8 elements, and compile an
   unmodified convolution with it.

   Run with:  dune exec examples/extend_isa.exe *)

open Unit_dtype
open Unit_dsl

let () = Unit_isa.Defs.ensure_registered ()

(* Step 1: describe the instruction's semantics in the tensor DSL, exactly
   like Fig. 4 does for VNNI/DOT/WMMA. *)
let vqdot =
  let lanes = 8 and width = 8 in
  let a = Tensor.create ~name:"a" ~shape:[ lanes * width ] Dtype.I8 in
  let b = Tensor.create ~name:"b" ~shape:[ lanes * width ] Dtype.I8 in
  let c = Tensor.create ~name:"c" ~shape:[ lanes ] Dtype.I32 in
  let d = Tensor.create ~name:"d" ~shape:[ lanes ] Dtype.I32 in
  let i = Axis.data_parallel ~name:"i" lanes in
  let j = Axis.reduction ~name:"j" width in
  let index = Expr.add (Expr.mul (Expr.axis i) (Expr.int_imm width)) (Expr.axis j) in
  let body =
    Expr.mul
      (Expr.cast Dtype.I32 (Expr.access a [ index ]))
      (Expr.cast Dtype.I32 (Expr.access b [ index ]))
  in
  Unit_isa.Intrin.create ~name:"riscv.vqdot" ~llvm_name:"llvm.riscv.vqdot.v8i32"
    ~platform:Unit_isa.Intrin.Arm (* reuse the ARM machine model *)
    ~cost:{ latency = 4; throughput = 1.0; macs = 64 }
    (Op.create ~name:"vqdot" ~output:d ~spatial:[ i ] ~reduce:[ j ]
       ~init:(Op.Init_tensor c) body)

(* Step 2: register it. *)
let () = Unit_isa.Registry.register vqdot

(* Step 3: there is no step 3 — compile a convolution with it. *)
let () =
  let conv =
    Op_library.conv2d_nchwc ~data_dtype:Dtype.I8 ~weight_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ~lanes:8 ~reduce_width:8
      { Op_library.in_channels = 32; in_height = 8; in_width = 8; out_channels = 32;
        kernel = 3; stride = 1 }
  in
  match Unit_core.Pipeline.tensorize ~spec:Unit_machine.Spec.graviton2 conv vqdot with
  | Error f -> failwith (Unit_core.Pipeline.failure_to_string f)
  | Ok compiled ->
    Format.printf "vqdot applies; tuned schedule:@.%a@." Schedule.pp
      compiled.Unit_core.Pipeline.c_tuned.Unit_rewriter.Cpu_tuner.t_schedule;
    (* the interpreter executes the new instruction from its description *)
    let func = compiled.Unit_core.Pipeline.c_tuned.Unit_rewriter.Cpu_tuner.t_func in
    let inputs =
      List.map
        (fun t -> (t, Unit_codegen.Ndarray.random_for_tensor ~seed:3 t))
        (Op.inputs conv)
    in
    let out_ref = Unit_codegen.Ndarray.of_tensor_zeros conv.Op.output in
    let out_new = Unit_codegen.Ndarray.of_tensor_zeros conv.Op.output in
    Unit_codegen.Interp.run (Unit_tir.Lower.scalar_reference conv)
      ~bindings:((conv.Op.output, out_ref) :: inputs);
    Unit_codegen.Interp.run func ~bindings:((conv.Op.output, out_new) :: inputs);
    Format.printf "new instruction's kernel matches the scalar oracle: %b@."
      (Unit_codegen.Ndarray.equal out_ref out_new);
    Format.printf "estimated latency on the ARM model: %.2f us@."
      (Unit_core.Pipeline.seconds compiled *. 1e6)
