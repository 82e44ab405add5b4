(** The CPU tuning strategy (Sections III-C.3 and IV-B, Fig. 7).

    After tensorization the remaining loops are organized around two
    {e breaking points} on the data-parallel nest:

    {v
    [fused + parallel dp loops]      <- before the first breaking point
    [serial dp loops]
    [reduction loops]
    [unrolled dp loops]              <- after the second breaking point
    [tensorized innermost nest]
    v}

    Placing unrolled data-parallel loops {e below} the innermost reduction
    creates independent accumulation chains that hide the tensorized
    instruction's RAW latency; fusing enough outer loops feeds every core.
    A configuration is summarized by the two budgets the paper sweeps: the
    parallel grain bound (3000 in Fig. 10's "Parallel" bar) and the unroll
    budget (8 in "+Unroll"); [tune] searches the space ("+Tune"). *)

open Unit_dsl

type config = {
  parallel_grain : int;
      (** fuse outermost dp loops while their product stays below this *)
  unroll_budget : int;
      (** unroll innermost dp loops while their product stays within this *)
}

val version : int
(** Version of the tuning-config schema and search semantics.  Persisted
    alongside stored configs (see [Unit_store.Store]); bump it whenever
    [apply] or the candidate grid changes meaning so stale databases
    re-tune instead of replaying configs that no longer mean the same. *)

val config_to_json : config -> Unit_obs.Json.t
(** [{"grain": g, "unroll": u}] — the serialized form persisted by the
    tuning store. *)

val config_of_json : Unit_obs.Json.t -> (config, string) result
(** Inverse of {!config_to_json}; rejects missing fields and
    non-positive budgets. *)

val default_config : config
(** The paper's first tuning pair: grain 3000, unroll 8 — which Fig. 10
    reports is already optimal for more than half the kernels. *)

val parallel_only : config
(** Fig. 10's "Parallel" ablation: no unrolling. *)

(** What a configuration decides on one reorganized schedule: the
    integers the greedy breaking points compute from the data-parallel
    extents.  The unroll group takes [unroll_loops] whole loops from the
    inner end of the dp nest, then an [unroll_chunk]-sized inner piece of
    the next loop outward; the parallel group takes [parallel_loops] whole
    loops of what is left from the outer end, then a
    [parallel_chunk]-sized outer piece of the next one.  A chunk of 1
    means no split.  Two configs with equal decisions realize the same
    schedule. *)
type decision = {
  unroll_loops : int;
  unroll_chunk : int;
  parallel_loops : int;
  parallel_chunk : int;
}

val decide : Reorganize.t -> config -> decision
(** The decision of a configuration; pure, no schedule is built. *)

val apply : Reorganize.t -> config -> Schedule.t
(** Realize a configuration on a reorganized schedule: split/fuse the
    data-parallel loops into the three groups as {!decide} says, reorder
    the unroll group below the reductions, annotate. *)

type tuned = {
  t_config : config;
  t_schedule : Schedule.t;
  t_func : Unit_tir.Lower.func;  (** lowered, instruction replaced *)
  t_estimate : Unit_machine.Cpu_model.estimate;
  t_report : Unit_machine.Cost_report.t;
      (** cycle attribution of [t_estimate] (components sum to
          [est_cycles]) *)
}

val candidate_configs : Unit_machine.Spec.cpu -> config list
(** The swept grid: parallel grains scaled around the core count plus the
    3000 default, crossed with unroll budgets 1..16. *)

val compile : Reorganize.t -> config -> Unit_tir.Lower.func
(** [apply], lower, and replace in one step. *)

val of_config :
  Unit_machine.Spec.cpu -> ?threads:int -> Reorganize.t -> config -> tuned
(** The warm path: realize one (stored) configuration — apply, lower,
    replace, estimate — without running the sweep.  [apply] is
    deterministic, so [of_config spec r (tune spec r).t_config] rebuilds
    a bit-identical kernel.  Opens a [tensorize.from_config] span and no
    [tensorize.tune] / [tuner.candidate] spans: a traced warm start is
    recognizable by their absence. *)

val tune :
  Unit_machine.Spec.cpu ->
  ?threads:int ->
  Reorganize.t ->
  tuned
(** Profile the candidates on the machine model and keep the fastest —
    the paper's feedback-driven search, with the model standing in for
    hardware profiling.  Only the first config of each {!decide} class,
    in {!candidate_configs} order, is realized (lowered, replaced and
    estimated); the fold keeps the first of equal estimates, so the
    winner and its [t_config] are those of realizing every config.
    Under tracing, [tuner.candidates] counts the realized configs and
    [tuner.pruned] the ones skipped as duplicates: the two sum to the
    grid's size per sweep. *)
