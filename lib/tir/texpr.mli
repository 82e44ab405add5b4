(** Scalar expressions of the tensor IR.

    Compared to the DSL level, tensor accesses are flattened to
    [Load (buffer, element_index)] and loop axes have become plain
    variables.  Smart constructors fold constants eagerly, which keeps
    lowered index arithmetic small and makes the affine analysis in
    {!Linear} precise. *)

open Unit_dtype

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max

type cmp =
  | Lt
  | Le
  | Eq
  | Ne

type t = private
  | Imm of Value.t
  | Var of Var.t
  | Load of Buffer.t * t
  | Binop of binop * t * t
  | Cmp of cmp * t * t  (** dtype [Bool] *)
  | And of t * t
  | Or of t * t
  | Not of t
  | Cast of Dtype.t * t
  | Select of t * t * t

exception Type_error of string

val imm : Value.t -> t
val int_imm : ?dtype:Dtype.t -> int -> t
val float_imm : ?dtype:Dtype.t -> float -> t
val var : Var.t -> t

val load : Buffer.t -> t -> t
(** @raise Type_error if the index dtype is not an integer. *)

val binop : binop -> t -> t -> t
(** Folds when both operands are immediates; simplifies [x+0], [x*1],
    [x*0], [x/1], [0/x]-style identities.
    @raise Type_error on dtype mismatch. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val mod_ : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val cmp : cmp -> t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val not_ : t -> t
val cast : Dtype.t -> t -> t
val select : t -> t -> t -> t

val dtype_of : t -> Dtype.t

val map_children : (t -> t) -> t -> t
(** [e] rebuilt from [f] applied to each immediate child, through the
    smart constructors above, so the rebuilt node folds and simplifies
    like a fresh one; leaves come back unchanged.  The one child
    traversal of the rewriting passes.  Walkers that treat some children
    as conditional (the right operand of [And]/[Or], the branches of
    [Select]) and per-node evaluators and printers match on the node
    themselves. *)

val fold_children : ('a -> t -> 'a) -> 'a -> t -> 'a
(** [f] folded over [e]'s immediate children in source order ([Select]:
    condition, then, else); a leaf returns [acc]. *)

val vars_of : t -> Var.t list
(** Deduplicated, first-use order. *)

val loads_of : t -> (Buffer.t * t) list
(** Every [Load] node in left-to-right order (duplicates preserved). *)

val substitute : (Var.t * t) list -> t -> t
(** Capture-free substitution of variables (re-runs the folding
    constructors, so substituting constants simplifies). *)

val as_const_int : t -> int option

val equal_structural : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
