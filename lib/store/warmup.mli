(** Concurrent warm-up scheduler.

    Compiles every distinct tensorizable workload of a model (or the
    whole zoo, or Table I) through the cached pipeline, fanned across
    {!Unit_codegen.Parallel_oracle} domains.  With a tuning store
    installed ({!Unit_core.Pipeline.set_tuning_store}), a warm start
    turns into a stream of disk hits that recompile from stored configs
    and skip the tuner sweep; a cold start populates the store.

    Scheduling semantics:
    - {e dedup}: one sequential pass over the job list keeps the first
      job of each key, so a key appearing in several models of a zoo
      batch (or enqueued twice) compiles exactly once; the rest are
      counted on [warmup.dedup] and reported as {!field-rp_deduped}.
      Jobs with different keys that share a tuning (the [Compiled] and
      [Emitted] jobs of one workload) both run, but tune once: the
      pipeline's kernel memo is single-flight across domains.
    - {e bounded retries}: each job runs under {!with_retries}, the
      policy the serving daemon shares: a job failing with anything
      other than [Invalid_argument] is retried up to [retries] extra
      times ([warmup.retry]), then reported as failed.  Each retry sleeps
      {!backoff_s} first — bounded exponential backoff with a
      deterministic per-(job, attempt) jitter — so transient
      compile-shell failures don't hot-spin domains.  [Invalid_argument]
      is the pipeline's deterministic "does not tensorize" rejection — it
      is never retried and lands in {!field-rp_skipped}, not failures.
    - per-workload [warmup.workload] spans and [warmup.jobs] /
      [warmup.compiled] / [warmup.dedup] / [warmup.retry] /
      [warmup.fail] counters when tracing is enabled. *)

type target = Unit_core.Pipeline.target = X86 | Arm

val target_to_string : target -> string
(** {!Unit_core.Pipeline.target_to_string}.  The type and this function
    are re-exports kept for existing callers; new code uses the
    {!Unit_core.Pipeline} names. *)

type job = {
  job_key : string;
      (** dedup identity: {!Unit_core.Pipeline.kernel_key}, built from
          every field of the workload (two convs that differ only in
          padding are two jobs), and the engine, e.g.
          ["x86/vnni.vpdpbusd/conv2d_c64_..._p1_g1/tuned#compiled"].
          The engine is part of the key: the same workload warmed under
          [Compiled] and [Emitted] does different work (the latter bakes
          a native artifact) and must not dedup across engines. *)
  job_compile : unit -> unit;
}

val job :
  ?engine:Unit_core.Pipeline.engine -> target -> Unit_graph.Workload.t -> job
(** Compile one workload through {!Unit_core.Pipeline.compiled}.
    [engine] (default [Compiled]) selects what the job bakes beyond the
    tuning record: [Emitted] additionally renders + native-compiles the
    tuned kernel ({!Unit_core.Pipeline.bake}), so a store-backed warm-up
    leaves loadable [.cmxs] artifacts behind.  Emission failures degrade
    silently (counted on [emit.fallback]) — they never fail the job. *)

val jobs_of_graph :
  ?engine:Unit_core.Pipeline.engine -> target -> Unit_graph.Graph.t -> job list
(** Every distinct conv + dense workload of a graph. *)

val jobs_of_model :
  ?engine:Unit_core.Pipeline.engine -> target -> string -> (job list, string) result
(** {!jobs_of_graph} of the graph {!Unit_core.Memplan.build_graph}
    resolves (a zoo model, or the block over one ["table1:N"] row), with
    its error texts. *)

val jobs_of_zoo : ?engine:Unit_core.Pipeline.engine -> target -> job list
(** All nine models, concatenated {e without} pre-deduplication — shared
    layers are deliberately left for {!run}'s dedup pass to catch. *)

val jobs_of_table1 :
  ?engine:Unit_core.Pipeline.engine ->
  target ->
  ?index:int ->
  unit ->
  (job list, string) result
(** Table I workloads; [index] (1-based) selects a single row, with
    {!Unit_models.Table1.row}'s error when it is out of range. *)

val backoff_s : key:string -> attempt:int -> float
(** Sleep before retrying [key] after its [attempt]th failed try
    (1-based): [min (0.02 * 2^(attempt-1)) 0.5] seconds scaled by a
    deterministic jitter in [0.5, 1.0] derived from
    [Hashtbl.hash (key, attempt)] — pure, so the schedule is testable. *)

(** How a job's attempts under {!with_retries} ended. *)
type 'a attempts =
  | Done of 'a
  | Rejected of string
      (** the job raised [Invalid_argument] — a deterministic rejection
          (the workload does not tensorize), never retried *)
  | Gave_up of exn * int  (** the last exception and the attempts made *)

val with_retries :
  ?sleep:(float -> unit) ->
  retries:int ->
  on_retry:(int -> exn -> unit) ->
  key:string ->
  (int -> 'a) ->
  'a attempts
(** The one retry policy of warm-up and the serving daemon: run [f 1];
    any exception other than [Invalid_argument] is retried up to
    [retries] extra times, calling [on_retry n e] and then
    [sleep (backoff_s ~key ~attempt:n)] (default [Unix.sleepf]) after
    attempt [n] raised [e].  [f] gets the 1-based attempt number. *)

type failure = {
  f_key : string;
  f_error : string;
  f_attempts : int;
}

type report = {
  rp_jobs : int;  (** jobs submitted *)
  rp_compiled : int;
  rp_deduped : int;  (** jobs dropped by the dedup pass *)
  rp_skipped : (string * string) list;  (** (key, reason): not tensorizable *)
  rp_retries : int;  (** extra attempts spent across all jobs *)
  rp_failures : failure list;
  rp_elapsed_s : float;
}

val run : ?domains:int -> ?retries:int -> job list -> report
(** Execute a batch.  [domains] defaults to
    {!Unit_codegen.Parallel_oracle.default_domains}; [retries] (extra
    attempts per transiently-failing job) defaults to 1. *)

val pp_report : Format.formatter -> report -> unit
