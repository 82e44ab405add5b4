(* Render-identity dump: the emitted OCaml source of the 48 Table I
   kernels (each row's tuned x86 kernel, tuned Arm kernel and
   [Lower.scalar_reference]) and [Emit.version], on stdout.  A refactor
   of the emitter or of what feeds it must leave this byte-identical, so
   the artifact keys stay put; bench/identity.sh writes it beside the
   other outputs to compare between two checkouts.

   dune exec bench/render_dump.exe > render.txt *)

module Pipeline = Unit_core.Pipeline

let () =
  Unit_isa.Defs.ensure_registered ();
  let dump label func =
    Printf.printf "=== %s\n" label;
    match Unit_codegen.Emit.render func with
    | _, src -> print_string src
    | exception Unit_codegen.Emit.Unsupported m -> Printf.printf "unsupported: %s\n" m
  in
  Array.iteri
    (fun i wl ->
      let x86 = Pipeline.conv_compiled_x86 wl and arm = Pipeline.conv_compiled_arm wl in
      let tuned (c : Pipeline.compiled) = c.c_tuned.Pipeline.Cpu_tuner.t_func in
      dump (Printf.sprintf "t%d x86" (i + 1)) (tuned x86);
      dump (Printf.sprintf "t%d arm" (i + 1)) (tuned arm);
      dump (Printf.sprintf "t%d scalar" (i + 1)) (Unit_tir.Lower.scalar_reference x86.c_op))
    Unit_models.Table1.workloads;
  Printf.printf "=== Emit.version %d\n" Unit_codegen.Emit.version
