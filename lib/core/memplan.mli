(** Driver for the whole-graph memory analysis ([unitc memplan], the
    [@memcheck] alias and the [BENCH_memplan.json] freeze).

    Resolves a model spec (zoo name or [table1:N]) to the same graph the
    latency figures use — structural quantization for the target's
    activation dtype, then fusion — and runs
    {!Unit_analysis.Liveness} / {!Unit_analysis.Arena}: plan, prove,
    report.  Records the [mem.peak.bytes] / [mem.arena.bytes] /
    [mem.reuse.ratio] observability counters when tracing is enabled
    (the ratio in percent — counters are integral). *)

open Unit_graph
module Liveness = Unit_analysis.Liveness
module Arena = Unit_analysis.Arena
module Footprint = Unit_analysis.Footprint

type analysis = {
  ma_graph : Graph.t;
  ma_ranges : Liveness.range array;
  ma_plan : Arena.t;
  ma_diags : Unit_tir.Diag.t list;  (** checker verdict; [[]] = proven *)
  ma_stats : Arena.stats;
}

val build_graph :
  model:string -> act_dtype:Unit_dtype.Dtype.t -> (Graph.t, string) result
(** Zoo name or ["table1:N"] (a conv/bias/relu block over the Table I
    workload), quantized structurally and fused. *)

val analyze : Graph.t -> analysis
(** Liveness, arena plan, independent check, stats, Obs counters. *)

val kernel_reports :
  target:Pipeline.target ->
  Graph.t ->
  (string * int * Footprint.report option) list
(** Per distinct conv workload: [(name, multiplicity, footprint)] of the
    tensorized kernel; [None] when the pipeline cannot tensorize it. *)

val pp_analysis : string -> Format.formatter -> analysis -> unit
val analysis_to_json : string -> analysis -> Unit_obs.Json.t

(** {1 The frozen zoo benchmark} *)

val bench_schema : string
(** ["unit-memplan"] — validated by {!Perf_gate.validate_file}. *)

val bench_version : int

type bench_row = {
  br_model : string;
  br_naive_bytes : int;
  br_peak_bytes : int;
  br_arena_bytes : int;
  br_reuse_ratio : float;
  br_slots : int;
}

val bench_rows : unit -> bench_row list
(** Analyze the whole zoo (x86 act dtype; host bytes are
    dtype-independent, the fixed pipeline keeps the freeze
    deterministic).
    @raise Invalid_argument if the checker rejects any plan. *)

val bench_to_json : bench_row list -> Unit_obs.Json.t
val write_bench : string -> bench_row list -> unit
