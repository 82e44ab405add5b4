(** The static checker for tensor-IR programs.

    One walk proves a program well-formed — the restricted form
    (Section II-C.3) that licenses the Inspector's and Rewriter's
    assumptions, and that the fast engines' unchecked array accesses
    rely on — and proves its {e schedule annotations} safe to honour.
    Every kernel [Unit_core.Pipeline.tensorize] ships has passed it.

    - {b scope}: every variable read is bound by an enclosing loop or
      let; every buffer accessed is a parameter or an enclosing [Alloc].
    - {b canonical loops}: every loop variable is bound once and every
      extent is positive.
    - {b bounds}: every load/store index provably stays within its
      buffer, by {!Unit_tir.Linear.bounds} over the loop ranges, refined
      by the [x < c] / [x <= c] guards of enclosing [If]s (which covers
      the split-residue guards lowering emits).
    - {b tiles}: every [Intrin_call] names a known instruction, its tile
      strides name only that instruction's axes, and each tile's whole
      register window stays inside its buffer.
    - {b races}: a [For {kind = Parallel}] loop is flagged when two of
      its iterations can touch the same buffer element with at least one
      write.  Iteration footprints are compared with the interval
      machinery of {!Unit_tir.Linear}; fused loop variables appearing
      under [Div]/[Mod] are first split back into their coordinates so
      the footprints become linear again.
    - {b carried dependences}: [Vectorized] and [Unrolled] loops whose
      iterations conflict through memory, excepting recognizable
      reduction patterns ([out\[i\] = out\[i\] + _] and accumulating
      instruction tiles), which the scalar and SIMD semantics both
      tolerate.
    - {b tensorize legality}: each [Intrin_call]'s output tile must form
      an injective map from the instruction's spatial lanes to buffer
      elements, must not stride along reduction axes, and a
      non-accumulating instruction must not be re-issued over the same
      output tile by an enclosing reduction loop.
    - {b overflow lint}: narrowing integer casts and accumulation chains
      are interval-checked against their dtype; a single arithmetic node
      that provably wraps its own dtype is an error, a whole-loop
      accumulation that may exceed the accumulator range is a warning.

    Provable violations are {!Unit_tir.Diag.Error}s (the pipeline rejects
    the schedule); conflicts that merely cannot be ruled out are
    {!Unit_tir.Diag.Warning}s, so a sound-but-unanalyzable schedule is
    surfaced without being rejected. *)

(** What the checker needs to know about one tensorized instruction.
    Keeping this a callback keeps the library free of an ISA dependency:
    callers with a registry supply a lookup (see
    [Unit_core.Pipeline.intrin_meta]). *)
type intrin_meta = {
  im_spatial : (string * int) list;  (** spatial axis name -> extent *)
  im_reduce : (string * int) list;  (** reduce axis name -> extent *)
  im_operands : Unit_dtype.Dtype.t list;
      (** dtypes of the multiplicand inputs (accumulator excluded) *)
  im_accumulates : bool;
      (** the instruction adds into its output tile rather than
          overwriting it *)
}

val tile_span : intrin_meta option -> Unit_tir.Stmt.tile -> int * int
(** Offsets [(lo, hi)] from a tile's base that its register window
    reaches: each strided axis spans [stride * (extent - 1)]; an axis the
    instruction does not know (or [None]) counts as extent 1. *)

val check_stmt :
  ?intrin:(string -> intrin_meta option) ->
  params:Unit_tir.Buffer.t list ->
  Unit_tir.Stmt.t ->
  Unit_tir.Diag.t list
(** Check a bare statement whose free buffers are [params].  The default
    [intrin] lookup knows no instructions, so every [Intrin_call] is a
    [Tile] error. *)

val check_func :
  ?intrin:(string -> intrin_meta option) -> Unit_tir.Lower.func -> Unit_tir.Diag.t list
(** Check a lowered function; its tensors are the parameters.  Never
    raises.  Returned diagnostics preserve program order, each distinct
    one once; split with {!Unit_tir.Diag.errors} /
    {!Unit_tir.Diag.warnings}. *)
