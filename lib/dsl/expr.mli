(** Expressions of the tensor DSL.

    These are the expression trees the Inspector matches for isomorphism
    (Algorithm 1): every node carries a data type, leaves are immediates,
    axis references and tensor accesses, and interior nodes are casts and
    arithmetic.  Smart constructors enforce well-typedness, so downstream
    passes may assume both operands of a binary node share a dtype. *)

open Unit_dtype

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max

type t = private
  | Imm of Value.t
  | Axis_ref of Axis.t  (** loop variable; dtype [I32] *)
  | Access of Tensor.t * t list  (** multi-dimensional element read *)
  | Cast of Dtype.t * t
  | Binop of binop * t * t
  | Neg of t

exception Type_error of string

val imm : Value.t -> t
val int_imm : ?dtype:Dtype.t -> int -> t
(** Integer immediate, [I32] by default. *)

val float_imm : ?dtype:Dtype.t -> float -> t
(** Float immediate, [F32] by default. *)

val axis : Axis.t -> t

val access : Tensor.t -> t list -> t
(** @raise Type_error if the index count differs from the tensor rank or an
    index is not of an integer dtype. *)

val cast : Dtype.t -> t -> t
(** Identity casts are elided. *)

val binop : binop -> t -> t -> t
(** @raise Type_error when operand dtypes differ. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val mod_ : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val neg : t -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t

val dtype_of : t -> Dtype.t

val map_children : (t -> t) -> t -> t
(** [e] rebuilt from [f] applied to each immediate child, through the
    smart constructors above (an identity cast vanishes, dtypes are
    re-checked); leaves come back unchanged.  Per-node evaluators and
    printers match on the node themselves. *)

val fold_children : ('a -> t -> 'a) -> 'a -> t -> 'a
(** [f] folded over [e]'s immediate children in source order (an
    access's indices left to right); a leaf returns [acc]. *)

val axes_of : t -> Axis.t list
(** Axes referenced anywhere in the expression, deduplicated, in first-use
    order. *)

val tensors_of : t -> Tensor.t list
(** Tensors accessed anywhere in the expression, deduplicated, in first-use
    order. *)

val accesses_of : t -> (Tensor.t * t list) list
(** Every [Access] node, in left-to-right order (duplicates preserved). *)

val binop_to_string : binop -> string

val eval : env:(Axis.t -> int) -> load:(Tensor.t -> int array -> Value.t) -> t -> Value.t
(** Reference evaluation; used to execute tensorized-instruction
    descriptions directly from their DSL semantics.
    @raise Type_error on a [Div] by a float/int mismatch (cannot happen for
    well-typed trees). *)

val substitute_axes : (Axis.t * t) list -> t -> t
(** Replace axis references by expressions (used when inlining an
    instruction description into a concrete loop context). *)

val equal_structural : t -> t -> bool
(** Structural equality up to axis and tensor {e identity}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
