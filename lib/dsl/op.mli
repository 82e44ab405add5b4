(** The {e tensor Op} data structure (Section II-C.2).

    A tensor Op describes one computation of the form

    {v out[spatial axes] (=|+=) reduce(body) over reduce axes v}

    It is the unit on which the Inspector runs its analysis, and — via
    {!Schedule} — the structure the Rewriter reorganizes.  Both deep
    learning operators (conv, dense, ...) and tensorized instructions
    (VNNI, Tensor Core, ...) are expressed as tensor Ops; that shared
    representation is the paper's "unified semantics abstraction". *)

type init =
  | Zero  (** accumulator starts at the dtype's zero (conv, dense) *)
  | Init_tensor of Tensor.t
      (** [d\[i\] = c\[i\] + sum(...)]: a separate accumulator input
          register, as in Intel VNNI / ARM DOT *)
  | In_place
      (** [c\[i\] += ...]: the accumulator must be the output register
          itself, as required by Nvidia Tensor Core (Fig. 4c) *)

type t = private {
  name : string;
  output : Tensor.t;
  spatial : Axis.t list;
      (** data-parallel axes; the k-th one indexes the k-th output dim *)
  reduce : Axis.t list;
  body : Expr.t;  (** the term assigned or summed; same dtype as output *)
  init : init;
}

exception Invalid_op of string

val create :
  ?name:string ->
  output:Tensor.t ->
  spatial:Axis.t list ->
  ?reduce:Axis.t list ->
  ?init:init ->
  Expr.t ->
  t
(** Validates the op:
    - [spatial] axes are all [Data_parallel] and [reduce] all [Reduction];
    - spatial axis extents equal the output shape, dimension by dimension;
    - [body] has the output dtype and references only declared axes;
    - an [Init_tensor] has the output's shape and dtype;
    - axes are not repeated.
    @raise Invalid_op otherwise. *)

val inputs : t -> Tensor.t list
(** Tensors read by the op: those accessed in [body], plus the
    [Init_tensor] accumulator if any.  Order: first use; no duplicates. *)

val all_axes : t -> Axis.t list
(** [spatial @ reduce]. *)

val has_reduction : t -> bool

val macs : t -> int
(** Number of body evaluations = product of every axis extent; the work
    metric used by the benchmarks (for MAC-style bodies this is the number
    of multiply-accumulates). *)

val pp : Format.formatter -> t -> unit
(** Pretty-print in the Fig. 4 style: declarations then the update rule. *)

val to_string : t -> string
