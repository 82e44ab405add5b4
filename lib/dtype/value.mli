(** Runtime scalar values for the tree-walking oracle.

    A value is a payload (64-bit integer or double) together with the
    {!Dtype.t} it inhabits; constructors normalize the payload into that
    type (integers wrap to the type's width, fp16/fp32 payloads are rounded
    to their precision) so a [Value.t] is always canonical.

    These are the oracle's boxed rules.  The native engines (the closure
    compiler, the unboxed ndarrays, emitted kernels) run the integer
    rules on bare ints through [Unit_emit_hook]'s canonicalizers, and
    the tests check those bit-for-bit against this module. *)

type t = private
  | Int of Dtype.t * int64
  | Float of Dtype.t * float

val of_int64 : Dtype.t -> int64 -> t
(** Wraps into the integer type's range.
    @raise Invalid_argument if the dtype is a float type. *)

val of_int : Dtype.t -> int -> t

val of_float : Dtype.t -> float -> t
(** Rounds to the float type's precision (fp16 via {!F16}).
    @raise Invalid_argument if the dtype is an integer type. *)

val zero : Dtype.t -> t
val one : Dtype.t -> t

val dtype : t -> Dtype.t

val to_int64 : t -> int64
(** Integer payload; floats are truncated toward zero.  Out-of-range floats
    saturate to the destination's bounds like hardware conversions. *)

val to_float : t -> float

val cast : Dtype.t -> t -> t
(** C-style conversion: int->int wraps, float->int truncates toward zero
    (saturating at the bounds), int->float and float->float round. *)

val cast_saturating : Dtype.t -> t -> t
(** Like {!cast} but int->int clamps to the destination range — the
    behaviour of requantization instructions. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

val rem : t -> t -> t
(** Remainder; integer remainder by zero yields zero (like {!div}). *)

val min : t -> t -> t
val max : t -> t -> t

val neg : t -> t

val equal : t -> t -> bool
(** Structural equality; NaN equals NaN so test assertions are stable. *)

val compare_num : t -> t -> int
(** Numeric comparison across representations. *)

val shift_right_rounding : t -> int -> t
(** Arithmetic right shift with round-to-nearest (away from zero on ties),
    the fixed-point requantization primitive.
    @raise Invalid_argument on float values. *)

val round_float : Dtype.t -> float -> float
(** Rounds to the float dtype's precision (identity for [F64]): the
    rounding {!of_float} applies, on a bare float.
    @raise Invalid_argument for integer dtypes. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
