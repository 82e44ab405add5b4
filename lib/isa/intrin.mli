(** Tensorized instructions, abstracted as tensor-DSL programs
    (Section III-A, Fig. 4).

    An instruction is a tiny {!Unit_dsl.Op}: its tensors stand for register
    operands, its data-parallel axes for output lanes, and its reduction
    axes for the horizontal accumulation.  Because instruction and
    operation share one representation, the Inspector can match them with
    a single analysis and new instructions integrate by writing one of
    these values — the paper's central claim. *)

type platform =
  | X86
  | Arm
  | Gpu

(** Pipeline characteristics consumed by the machine model. *)
type cost = {
  latency : int;
      (** cycles before the accumulator result can feed a dependent
          instruction; the RAW-hazard term the CPU tuner hides by
          unrolling *)
  throughput : float;  (** sustained issues per cycle when independent *)
  macs : int;  (** multiply-accumulates performed per issue *)
}

type t = private {
  name : string;  (** registry key, e.g. ["vnni.vpdpbusd"] *)
  llvm_name : string;
      (** the LLVM intrinsic this stands for, e.g.
          ["llvm.x86.avx512.vpdpbusd.512"]; documentation only *)
  platform : platform;
  op : Unit_dsl.Op.t;  (** the semantics *)
  cost : cost;
  digest : string;  (** {!semantic_digest}, computed once by {!create} *)
}

exception Invalid_intrin of string

val create :
  name:string -> llvm_name:string -> platform:platform -> cost:cost -> Unit_dsl.Op.t -> t
(** Validates the register-operand discipline on top of {!Unit_dsl.Op}'s
    own checks:
    - each input tensor is accessed exactly once in the body (a register
      cannot correspond to two data sources);
    - the instruction accumulates: [init] is [Init_tensor _] or [In_place]
      (every real tensorized instruction adds into its destination);
    - the op has at most 3 spatial and 3 reduce axes (registers are small);
    - [cost.latency >= 1], [cost.throughput > 0], [cost.macs >= 1].
    @raise Invalid_intrin otherwise. *)

val output_lanes : t -> int
(** Product of spatial-axis extents = number of result lanes. *)

val reduction_width : t -> int
(** Product of reduce-axis extents = elements accumulated per lane. *)

val axis_by_name : t -> string -> Unit_dsl.Axis.t option

val tensor_by_name : t -> string -> Unit_dsl.Tensor.t option
(** Looks among the op's inputs and output. *)

val platform_to_string : platform -> string

val platform_of_string : string -> platform option
(** Inverse of {!platform_to_string}. *)

val semantic_digest : t -> string
(** Canonical content digest of the instruction's {e semantics}: name,
    llvm name, platform, cost, and the full DSL description (tensors by
    name/shape/dtype, axes by name/kind/extent, init form, body
    expression).  Tensor/axis {e identities} are excluded, so a
    description printed to a [.uisa] pack, parsed back and re-elaborated
    digests identically.  32 lowercase hex characters.

    This digest is the collision policy of {!Registry} (same name + same
    digest = idempotent re-registration; same name + different digest =
    structured error) and is folded into tuning-store / emit-artifact
    keys, so editing a pack invalidates its warm records instead of
    silently replaying stale configs.  Computed once, when {!create}
    builds the value. *)

val pp : Format.formatter -> t -> unit
(** Fig. 4-style rendering: name, LLVM intrinsic, then the DSL program. *)
