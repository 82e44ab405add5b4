(* Quickstart: tensorize a quantized matmul with Intel VNNI in ~20 lines.

   Run with:  dune exec examples/quickstart.exe

   The flow is the whole paper in miniature: describe the operation in the
   tensor DSL, ask the Inspector whether the instruction applies, let the
   Rewriter reorganize/replace/tune, then (a) execute the tensorized kernel
   against the scalar oracle and (b) read the machine model's estimate. *)

open Unit_dtype
open Unit_dsl

let () = Unit_isa.Defs.ensure_registered ()

let () =
  (* a 64x64x64 u8 x i8 -> i32 matrix multiply *)
  let op =
    Op_library.matmul ~n:64 ~m:64 ~k:64 ~a_dtype:Dtype.U8 ~b_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ()
  in
  let vnni = Unit_isa.Registry.find_exn "vnni.vpdpbusd" in

  (* one call: Inspector + Rewriter + tuner *)
  let compiled =
    match
      Unit_core.Pipeline.tensorize ~spec:Unit_machine.Spec.cascadelake op vnni
    with
    | Ok c -> c
    | Error f ->
      failwith ("vnni does not apply: " ^ Unit_core.Pipeline.failure_to_string f)
  in

  Format.printf "tuned schedule:@.%a@." Schedule.pp
    compiled.Unit_core.Pipeline.c_tuned.Unit_rewriter.Cpu_tuner.t_schedule;

  (* correctness: the tensorized kernel must match the scalar reference *)
  let func = compiled.Unit_core.Pipeline.c_tuned.Unit_rewriter.Cpu_tuner.t_func in
  let inputs =
    List.map (fun t -> (t, Unit_codegen.Ndarray.random_for_tensor ~seed:42 t)) (Op.inputs op)
  in
  let out_ref = Unit_codegen.Ndarray.of_tensor_zeros op.Op.output in
  let out_vnni = Unit_codegen.Ndarray.of_tensor_zeros op.Op.output in
  Unit_codegen.Interp.run (Unit_tir.Lower.scalar_reference op)
    ~bindings:((op.Op.output, out_ref) :: inputs);
  Unit_codegen.Interp.run func ~bindings:((op.Op.output, out_vnni) :: inputs);
  assert (Unit_codegen.Ndarray.equal out_ref out_vnni);
  Format.printf "tensorized result matches the scalar oracle.@.";

  (* performance: the simulated Cascade Lake's estimate *)
  Format.printf "estimated latency: %.2f us (%.0f x over the scalar code)@."
    (Unit_core.Pipeline.seconds compiled *. 1e6)
    (let scalar =
       Unit_machine.Cpu_model.estimate Unit_machine.Spec.cascadelake
         (Unit_tir.Lower.scalar_reference op)
     in
     scalar.Unit_machine.Cpu_model.est_seconds /. Unit_core.Pipeline.seconds compiled)
