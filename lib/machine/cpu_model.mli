(** Analytical CPU performance model.

    This is the stand-in for running on real Cascade Lake / Graviton2
    hardware.  It walks a lowered tensor-IR program and charges:

    - {b issue cost} per operation (superscalar width, load ports,
      per-intrinsic throughput, loop/branch overhead);
    - {b dependency stalls}: a loop whose body accumulates into
      loop-invariant addresses is latency-bound at
      [latency * accum_ops / independent_chains] per iteration — the RAW
      hazard of Section III-C that unrolling data-parallel loops below the
      reduction hides;
    - {b instruction-cache pressure}: an unrolled body that overflows the
      uop budget pays an issue multiplier (why the tuner cannot unroll
      arbitrarily far);
    - {b memory}: a footprint-based cache model — traffic at a level is the
      nest footprint once it fits, else the loop re-streams its body — fed
      into L2 and shared-DRAM bandwidths;
    - {b parallelism}: work divides over the effective parallel grains of
      [Parallel] loops, with fork/join and per-chunk overhead (why the
      tuner neither over- nor under-fuses).

    Guarded ("likely") bodies are charged in full, so non-dividing shapes
    pay for their padding — the workload #1/#4 effect of Section VI-B. *)

type estimate = {
  est_cycles : float;  (** end-to-end cycles (the model's latency) *)
  est_seconds : float;
  est_compute_cycles : float;  (** serialized compute including stalls *)
  est_l2_cycles : float;  (** L1-miss traffic over per-core L2 bandwidth *)
  est_dram_cycles : float;  (** LLC-miss traffic over shared DRAM bandwidth *)
  est_parallel_grains : int;  (** iterations available to parallelize *)
  est_threads_used : float;  (** effective thread utilization *)
}

val estimate : Spec.cpu -> ?threads:int -> Unit_tir.Lower.func -> estimate
(** [threads] defaults to [spec.cores]. *)

val estimate_with_report :
  Spec.cpu -> ?threads:int -> Unit_tir.Lower.func -> estimate * Cost_report.t
(** [estimate] plus the cycle attribution: the report's components sum
    to [est_cycles], with pure issue, RAW stalls and I-cache penalty
    separated out of the compute stream, fork/join + chunk-scheduling
    overhead charged on its own, and bandwidth time in excess of compute
    classed as memory-bound. *)

val estimate_stmt_with_report :
  Spec.cpu -> ?threads:int -> Unit_tir.Stmt.t -> estimate * Cost_report.t
