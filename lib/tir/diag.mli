(** Unified diagnostics for the static checkers.

    One rule-ID type shared by the static checker
    ([Unit_analysis.Analysis]: well-formedness and schedule legality) and
    the other subsystems that report structured failures (tuning store,
    memory planner, emitter, ISA packs), so every checker reports through
    the same channel and [unitc check] can print, count and gate on them
    uniformly. *)

type rule =
  | Scope  (** unbound variable / buffer not in scope *)
  | Bounds  (** load/store index may escape its buffer *)
  | Canonical  (** malformed loop structure (extent, rebinding) *)
  | Tile  (** malformed or out-of-window instruction tile *)
  | Race  (** parallel iterations touch overlapping elements *)
  | Carried_dep  (** vectorized/unrolled loop carries a non-reduction dep *)
  | Tensorize_footprint  (** instruction tile footprint / reduction shape *)
  | Overflow  (** narrowing cast or accumulator range overflow *)
  | Store  (** tuning-store record skipped (corrupt or stale schema) *)
  | Mem_plan
      (** arena memory plan rejected by the overlap checker (interfering
          live ranges share bytes, slot too small, tensor unplanned) *)
  | Emit
      (** native-emission engine degraded (no native [Dynlink] /
          [ocamlopt], unsupported construct) or an unknown engine name *)
  | Isa_pack
      (** declarative ISA-pack ([.uisa]) rejected: lexical/syntax error
          (position-tagged), elaboration failure (unknown dtype, shape or
          axis inconsistency, cost insanity), or a registry collision
          (same instruction name, different semantic digest) *)

type severity =
  | Error  (** the schedule is illegal; reject it *)
  | Warning  (** suspicious but not provably wrong; surface it *)

type t = {
  rule : rule;
  severity : severity;
  detail : string;
}

val rule_id : rule -> string
(** Stable short id: ["scope"], ["bounds"], ["canonical"], ["tile"],
    ["race"], ["dep-carried"], ["tensorize-footprint"], ["overflow"],
    ["store"], ["mem-plan"], ["emit"]. *)

val errorf : rule -> ('a, unit, string, t) format4 -> 'a
val warnf : rule -> ('a, unit, string, t) format4 -> 'a

val is_error : t -> bool
val errors : t list -> t list
val warnings : t list -> t list

val pp : Format.formatter -> t -> unit
(** Errors print as ["[rule] detail"]; warnings as
    ["[rule] warning: detail"]. *)

val to_string : t -> string
