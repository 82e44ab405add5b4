(** Registration slot and runtime helpers for Dynlink'd emitted kernels.

    Native [Dynlink] offers no symbol lookup: a loaded [.cmxs] can only
    communicate with its host through a module both sides link against.
    This tiny, dependency-free library is that module.  Each generated
    kernel opens it, ends with [let () = Unit_emit_hook.register kernel],
    and the host calls {!take} immediately after
    [Dynlink.loadfile_private] (under a lock, so concurrent loads cannot
    race on the slot).  The helpers below are the fixed part of every
    kernel: compiling them once here instead of into each kernel's
    source saves ocamlopt time per kernel. *)

type kernel =
  float array array ->
  int array array ->
  int64 array array ->
  int array ->
  (int -> (int -> unit) -> unit) ->
  unit
(** [kernel fcells icells lcells offsets par] runs the emitted kernel.
    [fcells]/[icells]/[lcells] hold the raw storage of every bound
    tensor, grouped by storage class in plan order; [offsets.(slot)] is
    the element offset of plan entry [slot] into its storage (non-zero
    for arena views); [par extent body] fans [body 0 .. body (extent-1)]
    across domains (or runs them serially — the host decides). *)

val register : kernel -> unit
(** Called by the loaded module's top-level initializer. *)

val take : unit -> kernel option
(** Read and clear the slot. *)

(** {2 Bounds}

    An emitted kernel reads and writes its arrays with
    [Array.unsafe_get]/[Array.unsafe_set].  An access whose index the
    emitter proved inside its buffer's [[0, size)] is rendered bare; it
    is safe because the kernel first checks each bound tensor's window
    against its array ({!check_window}).  Any other access is checked
    against [[0, size)] where it runs ({!out_of_window}).  Either check
    raises {!Out_of_window}, and the host falls back to an engine that
    reports the error itself. *)

exception Out_of_window of int * string
(** [Out_of_window (k, what)]: the window or an index of the kernel's
    buffer [k] (plan order for bound tensors, which come first) failed
    its check; [what] says how. *)

val check_window : int -> 'a array -> int -> int -> unit
(** [check_window k a o n] raises {!Out_of_window} unless
    [0 <= o] and [o + n <= Array.length a]: buffer [k]'s [n]-element
    window at offset [o] fits its array. *)

val out_of_window : int -> int -> int -> 'a
(** [out_of_window k i n] raises {!Out_of_window}: index [i] of buffer
    [k] left [[0, n)]. *)

(** {2 Canonicalizers}

    The one native copy of [Value]'s canonicalization rules on bare
    payloads: [w_*] wrap a native int to an integer dtype, [r_bf16]
    rounds a float to bf16, [trunc64]/[trunc] truncate a float toward
    zero (NaN → 0, saturating at the int64 range), [sat_*] saturate a
    float cast to an integer dtype.  Emitted kernels call them by name;
    the host reaches the per-dtype ones through [Ndarray.canon]. *)

val w_bool : int -> int
val w_u8 : int -> int
val w_i8 : int -> int
val w_i16 : int -> int
val w_i32 : int -> int
val r_bf16 : float -> float
val trunc64 : float -> int64
val trunc : float -> int
val sat_bool : float -> int
val sat_u8 : float -> int
val sat_i8 : float -> int
val sat_i16 : float -> int
val sat_i32 : float -> int

(** {2 Lane pairs}

    Two i32 accumulator lanes in one native int: lane [2j] in the low
    31 bits (sign-extended), lane [2j+1] above them, so one multiply by a
    shared activation updates both.  Exact while each lane's partial sum
    stays in [[-2^30, 2^30)]; the emitter proves that before it packs.
    A kernel splits a pair [v] inline: lane [2j] is [(v lsl 32) asr 32],
    lane [2j+1] is [(v + 2^30) asr 31]. *)

val pack_pairs : int array -> int -> int -> int -> int array
(** [pack_pairs w o n d] is [p] whose cell [d*q + r], for every
    [0 <= q < n / (2d)] and [0 <= r < d], holds
    [w.(o + 2dq + r) + w.(o + 2dq + r + d) lsl 31]: the weights of lane
    [2j] and lane [2j+1], [d] cells apart, in one int.  Only the pairs
    are kept: [p] is a fresh array of [n / 2] cells.

    Precondition: [0 <= o] and [o + n <= Array.length w], which the
    kernel's {!check_window} of [w]'s binding proves just before the
    call.  Every read lies in [[o, o + n)] and runs unchecked, so a call
    that breaks the precondition reads out of bounds.
    @raise Invalid_argument when [d < 1] or [n] is not a multiple of
    [2d]. *)
