(** Dense host-side arrays for the interpreters and the tests.

    Storage is unboxed and dtype-specialized: float dtypes back onto a
    [float array] (flat storage, values already rounded to the dtype's
    precision), integer dtypes up to 32 bits onto an [int array] holding
    canonically wrapped values, and [I64] onto an [int64 array].  The boxed
    {!Unit_dtype.Value.t} [get]/[set] interface remains the boundary API —
    every value returned by [get]/[get_flat] is canonical for the array's
    dtype, and [set]/[set_flat] re-canonicalize on the way in — while the
    compiled interpreter reaches the raw payloads through {!storage}. *)

open Unit_dtype

type storage =
  | Float_data of float array
  | Int_data of int array  (** canonically wrapped per the array dtype *)
  | Int64_data of int64 array

(** Which backing array a dtype lands in: float dtypes share
    [Float_data], [I64] has [Int64_data], every other integer dtype
    shares [Int_data].  The arena memory planner partitions tensors by
    this class. *)
type storage_class =
  | Float_class
  | Int_class
  | Int64_class

type t = private {
  dtype : Dtype.t;
  shape : int array;
  strides : int array;  (** row-major, cached at construction *)
  offset : int;  (** element offset into [storage]; 0 for owning arrays *)
  storage : storage;
}

val class_of_dtype : Dtype.t -> storage_class
(** The one dtype → storage-class partition: the arena planner, the
    executor and the three engines' bindings all follow it. *)

val is_narrow : Dtype.t -> bool
(** [class_of_dtype dt = Int_class]: an integer dtype of at most 32 bits,
    whose values fit a native int canonically wrapped. *)

val narrow_range : Dtype.t -> (int * int) option
(** A narrow dtype's value range, [None] for the other classes: what a
    load of a canonically wrapped buffer may read, as the engines give it
    to [Linear.bounds ~load]. *)

(** A narrow dtype's integer canonicalizers.  {!Unit_emit_hook} holds the
    one native definition of each; the closure engine calls the
    functions, and an emitted kernel, which opens the hook, calls them by
    name. *)
type canon = {
  wrap : int -> int;
      (** wraps a native int into the dtype's range, as {!Value.of_int}
          does: two's complement for signed, masking for unsigned, 0/1
          for bool *)
  wrap_name : string;  (** [wrap]'s name in the hook: ["w_i16"], ... *)
  sat : float -> int;
      (** truncates toward zero and saturates at the dtype's bounds, NaN
          to 0: {!Value.cast} from a float *)
  sat_name : string;  (** [sat]'s name in the hook: ["sat_i16"], ... *)
}

val canon : Dtype.t -> canon
(** The one table from a narrow dtype to its hook canonicalizers.
    @raise Invalid_argument when [not (is_narrow dt)]. *)

val zeros : dtype:Dtype.t -> shape:int list -> t

val view : t -> offset:int -> dtype:Dtype.t -> shape:int list -> t
(** [view base ~offset ~dtype ~shape] is a window into [base]'s backing
    array starting [offset] elements in: writes through the view are
    visible through [base] and vice versa.  The view may reinterpret the
    elements under any [dtype] of the same {!storage_class} (an arena
    allocated as I32 words can back a U8 tensor) — each access
    canonicalizes per the {e view}'s dtype.
    @raise Invalid_argument when the dtype's storage class differs from
    the base's, or the window escapes the backing array. *)

val is_view : t -> bool
(** The array does not own (all of) its storage: nonzero offset, or a
    window shorter than the backing array. *)

val init : dtype:Dtype.t -> shape:int list -> (int array -> Value.t) -> t
(** Element at each multi-index, row-major.  The index array is reused
    between calls; the callback must not retain it. *)

val init_float : dtype:Dtype.t -> shape:int list -> (int array -> float) -> t
(** Requantization-style construction from real numbers: float dtypes round
    to the dtype's precision; integer dtypes round to nearest and saturate
    at the dtype bounds.  Same index-array reuse caveat as {!init}. *)

val fill : t -> (int array -> Value.t) -> unit
(** Overwrite every element, row-major — {!init}'s loop over an existing
    array (typically an arena {!view}).  Same index-array reuse caveat. *)

val fill_float : t -> (int array -> float) -> unit
(** {!init_float}'s rounding/saturating store loop over an existing array.
    Writing through a view with [fill_float] is bit-identical to
    {!init_float} into a fresh array of the view's dtype and shape. *)

val of_tensor_zeros : Unit_dsl.Tensor.t -> t

val random_for_tensor : seed:int -> Unit_dsl.Tensor.t -> t
(** Deterministic pseudo-random fill covering the dtype's small range
    (integers in [-4, 4] — or [0, 8] unsigned — and floats in [-1, 1], so
    int32/fp32 accumulations in tests never overflow or lose precision).
    The fill depends only on [seed] and the tensor's name, shape and
    dtype: equal tensors get equal data in every process. *)

val num_elements : t -> int
val get : t -> int array -> Value.t
val set : t -> int array -> Value.t -> unit
val get_flat : t -> int -> Value.t
val set_flat : t -> int -> Value.t -> unit

val get_float_flat : t -> int -> float
(** Raw payload as a float ([float_of_int] / [Int64.to_float] for integer
    storage — the same conversion as {!Unit_dtype.Value.to_float}). *)

val get_int_flat : t -> int -> int
(** Raw payload as a native int; float storage truncates toward zero. *)

val flat_index : t -> int array -> int
(** Row-major flat offset of a multi-index, with bounds validation.
    @raise Invalid_argument on rank mismatch or out-of-range index. *)

val equal : t -> t -> bool
(** Same dtype, shape, and bit-identical elements (NaN equals NaN). *)

val approx_equal : tol:float -> t -> t -> bool
(** Element-wise [|a - b| <= tol * max(1, |b|)]; for float comparisons. *)

val fold : ('a -> Value.t -> 'a) -> 'a -> t -> 'a

val pp : Format.formatter -> t -> unit
(** Shape/dtype header plus leading elements; for test failure output. *)

val digest : t -> string
(** Canonical content digest (MD5 hex) of the elements in flat order,
    element-exact: integer storage hashes the exact value, float storage
    the IEEE-754 bits.  Equal digests mean bit-identical contents —
    stable across processes, the cross-process bit-identity witness used
    by the serve protocol and [unitc run]. *)
