(** Model-cost perf reports and the regression gate ([unitc bench-report] /
    [unitc bench-diff] / the root [@perf-gate] alias).

    A perf report is the machine model's view of one target frozen to
    JSON: for every Table I workload, the chosen instruction, its
    estimated cycles, and the {!Unit_machine.Cost_report} attribution.
    Because the numbers come from the analytical model (not wall
    clock), regenerating a report is deterministic — which is what
    makes a checked-in baseline diffable in CI: any drift is a real
    change to the cost model, tuner, or lowering, never noise.

    {!diff} compares two reports kernel-by-kernel and flags a
    regression when new cycles exceed old by more than the tolerance
    (percent); a kernel present in the baseline but missing from the
    new report is also a regression (coverage loss). *)

module Cost_report = Unit_machine.Cost_report

val schema : string
(** The ["schema"] tag of a perf-report file: ["unit-perf-report"]. *)

val version : int

type kernel = {
  k_id : int;  (** Table I row (0-based) *)
  k_workload : string;
  k_isa : string;  (** chosen instruction *)
  k_cycles : float;
  k_report : Cost_report.t;
}

type report = {
  pg_target : string;
  pg_kernels : kernel list;  (** workloads with no applicable ISA are absent *)
}

val generate : Explain.target -> report
(** Run {!Explain.conv} over every {!Unit_models.Table1.workloads} entry
    and keep each chosen verdict. *)

val to_json : report -> Unit_obs.Json.t
val of_json : Unit_obs.Json.t -> (report, string) result

val write : string -> report -> unit
val read : string -> (report, string) result

(** {1 Diffing} *)

type delta = {
  d_id : int;
  d_workload : string;
  d_old : float;
  d_new : float;  (** negative when the kernel vanished from the new report *)
  d_pct : float;  (** (new - old) / old * 100 *)
}

type diff = {
  df_regressions : delta list;  (** beyond tolerance, or missing kernels *)
  df_improvements : delta list;  (** faster beyond tolerance *)
  df_unchanged : int;
  df_added : int;  (** kernels only in the new report (not a failure) *)
}

val diff_reports : tolerance:float -> old_report:report -> new_report:report -> diff
(** [tolerance] is a percentage: new cycles up to
    [old *. (1. +. tolerance /. 100.)] pass. *)

val pp_diff : tolerance:float -> Format.formatter -> diff -> unit

(** {1 Schema lint} *)

val validate_file : string -> (string, string) result
(** Validate a checked-in benchmark JSON by its ["schema"] tag alone: a
    perf report (["unit-perf-report"], decoded by {!of_json}) or one of
    the entries of [bench_schemas] in [perf_gate.ml], which lists each
    BENCH freeze's required fields and substance gates.  An untagged
    or unknown-tag document is an error naming the known tags.  [Ok]
    carries a one-line description of what was validated. *)
