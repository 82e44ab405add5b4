(** Reference execution of a tensorized-instruction call.

    The interpreter delegates every {!Unit_tir.Stmt.Intrin_call} here: the
    instruction's own DSL description is executed directly, with each
    register operand backed by a memory {e tile} (base element index plus
    one stride per intrinsic axis; stride 0 = broadcast).  Because the
    description {e is} the semantics, a newly registered instruction is
    executable with zero extra code.

    The description is translated once per instruction into closures
    ({!compile}, memoized) — axis references and operand accesses resolve
    to array slots instead of association lists — and both the tree-walking
    and the compiled interpreter run intrinsic calls through that
    translation.  {!expand} instead rewrites each call into ordinary TIR
    built from the same description, for the native emitter. *)

open Unit_tir

exception Execution_error of string

type compiled
(** An instruction's DSL description translated to closures; safe to share
    across domains (each call allocates its own axis state). *)

val compile : Intrin.t -> compiled
(** Memoized per instruction name; a re-registered instruction of the same
    name is recompiled.
    @raise Execution_error if the body references an undeclared axis. *)

val run :
  compiled ->
  output:Stmt.tile ->
  inputs:(string * Stmt.tile) list ->
  read:(Buffer.t -> int -> Unit_dtype.Value.t) ->
  write:(Buffer.t -> int -> Unit_dtype.Value.t -> unit) ->
  tile_base:(Stmt.tile -> int) ->
  unit
(** Like {!execute}, but taking tile base addresses from [tile_base]
    (evaluated once per call — the base is loop-invariant across the
    intrinsic's axes). *)

val execute :
  Intrin.t ->
  output:Stmt.tile ->
  inputs:(string * Stmt.tile) list ->
  read:(Buffer.t -> int -> Unit_dtype.Value.t) ->
  write:(Buffer.t -> int -> Unit_dtype.Value.t -> unit) ->
  eval_index:(Texpr.t -> int) ->
  unit
(** [inputs] maps intrinsic tensor names to tiles.  For an
    [Init_tensor c]-style instruction the [c] operand is usually bound to
    the same memory as the output, which realizes the accumulate-in-place
    behaviour of the real hardware instruction.
    @raise Execution_error if an operand is missing or a tile references an
    axis the instruction does not have. *)

val expand : Lower.func -> Lower.func
(** Rewrite every {!Unit_tir.Stmt.Intrin_call} into plain TIR: a loop nest
    over the instruction's axes whose body is the DSL description
    translated by {!Unit_tir.Lower.texpr_of_expr}, operands loaded from
    their tiles, non-constant tile bases bound once by a [Let] outside the
    nest, the accumulator a one-element [Alloc] of the output dtype.
    Bit-identical to {!execute} on every call it accepts.
    @raise Execution_error on an unregistered instruction, on any tile
    {!execute} rejects, or on an operand, init or body dtype that differs
    from the instruction's. *)

val tile_address :
  Stmt.tile -> env:(string -> int) -> eval_index:(Texpr.t -> int) -> int
(** Element address of the tile entry at the given intrinsic axis values.
    Exposed for tests. *)
