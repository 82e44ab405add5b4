(* Tuned-config dump: for every distinct zoo kernel (each model's convs
   and dense layers) on x86 and Arm, one line with its
   [Pipeline.kernel_key], the winning grain and unroll budget, the
   number of feasible loop mappings and the modelled cycles, on stdout.
   A change to the tuner that claims the same winners must leave this
   byte-identical; bench/identity.sh writes it beside the other outputs
   to compare between two checkouts.

   dune exec bench/tuned_dump.exe > tuned.txt *)

module Pipeline = Unit_core.Pipeline
module Workload = Unit_graph.Workload

let () =
  Unit_isa.Defs.ensure_registered ();
  let seen = Hashtbl.create 512 in
  let dump target wl =
    let key = Pipeline.kernel_key target wl in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      match Pipeline.compiled target wl with
      | c ->
        let t = c.Pipeline.c_tuned in
        let config = t.Pipeline.Cpu_tuner.t_config in
        Printf.printf "%s grain=%d unroll=%d mappings=%d cycles=%.17g\n" key
          config.Pipeline.Cpu_tuner.parallel_grain config.Pipeline.Cpu_tuner.unroll_budget
          c.Pipeline.c_mappings t.Pipeline.Cpu_tuner.t_estimate.Unit_machine.Cpu_model.est_cycles
      | exception Invalid_argument m -> Printf.printf "%s failed: %s\n" key m
    end
  in
  List.iter
    (fun target ->
      List.iter
        (fun (_, build) ->
          let g = build () in
          List.iter (fun (wl, _) -> dump target (Workload.Conv wl)) (Unit_models.Zoo.conv_workloads g);
          List.iter (fun (wl, _) -> dump target (Workload.Fc wl)) (Unit_models.Zoo.dense_workloads g))
        Unit_models.Zoo.all)
    [ Pipeline.X86; Pipeline.Arm ]
