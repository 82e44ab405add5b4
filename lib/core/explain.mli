(** Per-operator tensorization coverage reports ([unitc explain]).

    For one convolution workload and one target, run {!Pipeline.tensorize}
    over every instruction of the target's platform (on
    {!Pipeline.conv_op}'s u8 activations and i8 weights, bypassing the
    tuning store) and report, per
    ISA, whether it applies — with mapping count, tuned config, cycles
    and the {!Unit_machine.Cost_report} attribution of the winner — or
    the structured rejection reason (mismatching node path, failing
    access pair, or mapping exhaustion).

    The GPU target has no Inspector surface (convolutions go through the
    implicit-GEMM WMMA template), so its report carries a single
    ["wmma.implicit-gemm"] entry with the tuned template's attribution. *)

module Cost_report = Unit_machine.Cost_report
module Inspector = Unit_inspector.Inspector

type target =
  | Cpu of Pipeline.target
      (** every instruction of {!Pipeline.target_platform}, on
          {!Pipeline.target_spec} *)
  | Gpu  (** V100 implicit-GEMM template *)

val target_to_string : target -> string

val target_of_string : string -> target option
(** Accepts the {!Pipeline.target_of_string} spellings plus
    [gpu]/[v100]. *)

type verdict =
  | Accepted of {
      vd_mappings : int;  (** feasible loop mappings found *)
      vd_config : string;  (** tuned config, human-readable *)
      vd_cycles : float;
      vd_report : Cost_report.t;
    }
  | Rejected of Inspector.rejection
  | Errored of string
      (** op construction or schedule legality failed (not an Inspector
          verdict) *)

type entry = {
  ex_isa : string;
  ex_provenance : string;
      (** where the instruction came from: ["builtin"] or
          ["pack:<source>"] for [.uisa]-loaded instructions *)
  ex_verdict : verdict;
}

type report = {
  ex_workload : string;
  ex_target : string;
  ex_entries : entry list;  (** one per platform instruction *)
  ex_chosen : string option;  (** fastest accepted ISA, if any *)
}

val conv : target -> Unit_graph.Workload.conv2d -> report

val pp : Format.formatter -> report -> unit
(** The [unitc explain] table: one line per ISA, the chosen one expanded
    with its attribution breakdown. *)

val to_json : report -> Unit_obs.Json.t
