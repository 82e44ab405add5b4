(** Native code emission: pretty-print a lowered TIR function as a
    self-contained OCaml module.

    The third execution engine (after the tree-walking {!Interp} and the
    closure-compiling {!Compile}): the kernel body becomes flat OCaml —
    unboxed-array accesses, loop variables as [let]-bound ints,
    [Intrin_call]s expanded into plain loops over the registered DSL
    description by {!Unit_isa.Semantics.expand} before rendering,
    [Parallel] loops fanned through a host-supplied callback — compiled
    to a [.cmxs] and [Dynlink]ed by {!Emit_cache}.

    Numerics contract: emitted code replicates {!Unit_dtype.Value}'s
    canonicalization on raw payloads (round-to-precision after every
    float op, saturating float→int casts, integers wrapped to their
    dtype wherever a value is observed), so results are bit-identical to
    {!Interp} and {!Compile} on analyzer-clean programs — the qcheck
    differential property in the tests pins this.  For u8/i8/i16/i32,
    add/sub/mul chains (also through [Alloc] scratch, whose one-element
    cells render as local [ref]s) wrap once at their consumer instead
    of after every op: reduction mod 2^k commutes with native 63-bit
    arithmetic because 2^k divides 2^63.  [bool] wraps after every op.

    Accumulator tiles ({!promote_tiles}): an output window a reduction
    loop reads and writes at provably dense offsets is copied into
    scratch before the loop and back after it, so it accumulates raw
    and wraps once per output.  Where the window's column loops can be
    hoisted above the reduction and at most 8 lanes remain, the tile is
    a register tile: one local per cell.  Where its lanes multiply one
    shared byte activation by byte weights the kernel never stores, and
    the partial sums provably fit, lanes [2j] and [2j+1] share one native
    int, reading the weights' compact pairs (packed once per run into an
    array of half their size).  When
    packed tiles are provably the first writers of the init nest's 0s
    and cover the buffer, they store their lanes instead of adding them
    to what they read back, and the init nest goes.

    Loop shaping: innermost loops and register-tile lane loops of at
    most 16 iterations are unrolled; every other loop binds, at the top
    of its body, its share of each exact i32 index and [Let] value
    nested in it (the running partial sum of the terms its variable and
    the loops around it change, a bound buffer's offset folded into the
    outermost), so an inner loop adds one term per index instead of
    recomputing it, and loops of extent 1 disappear; a loop with no
    loop left inside binds each load that runs on every iteration, with
    a loop-invariant index, from a buffer the loop never stores to, once
    before the loop, and a [Let] nothing reads whose value loads nothing
    is dropped.  Hoisting assumes distinct bound
    buffers never share cells; {!Emit_cache.run} falls back when two
    bound windows overlap in one array.

    Bounds: an access whose index {!Unit_tir.Linear.in_bounds} proves
    inside its buffer (the rule {!Compile} uses) renders as a bare
    [Array.unsafe_get]/[Array.unsafe_set], behind one window check per
    bound tensor at kernel entry; every other access is checked against
    its buffer's window where it runs.  A failed check raises
    [Unit_emit_hook.Out_of_window] before the access it guards, and
    {!Emit_cache.run} falls back to the engine that reports the error,
    so errors match {!Compile}'s.

    Render-time counters: [emit.wraps_deferred], [emit.loops_unrolled],
    [emit.loads_hoisted], [emit.index_terms_hoisted] (partials bound
    and extent-1 loops folded), [emit.scalar_cells], [emit.tiles_promoted],
    [emit.register_tiles], [emit.lanes_packed] (lane pairs),
    [emit.copyouts_stored] (register tiles whose copy-out stores),
    [emit.accesses_unchecked] and [emit.accesses_checked] (array
    accesses rendered bare and window-checked).

    Unlike {!Compile}, emitted kernels address every bound tensor
    through a per-tensor element offset, so arena-backed
    {!Ndarray.view}s bind directly. *)

open Unit_tir

exception Unsupported of string
(** Raised by {!render} when the function uses a construct the emitter
    does not cover (f16 dtypes, float-dtyped scalar variables, a buffer
    bound through two tensors) or when
    {!Unit_isa.Semantics.expand} rejects an intrinsic call (unregistered
    instruction, malformed tile, operand dtype differing from the
    instruction's).  Callers fall back to
    {!Compile}, which reproduces the tree-walker's behaviour — including
    its runtime errors — exactly. *)

val version : int
(** Bumped on any change to the generated code's semantics or calling
    convention; part of {!Emit_cache}'s artifact key, so stale on-disk
    kernels are never loaded.  Version 4 renders intrinsic calls from
    their TIR expansion; version 5 adds scalar cells, deferred wraps,
    innermost unrolling and load hoisting; version 6 adds accumulator
    tiles and raw scratch; version 7 adds register tiles and lane pairs
    and moves the canonicalizers into [Unit_emit_hook]; version 8 hoists
    index terms to the loop that changes them, folds extent-1 loops and
    rounds bf16 inline; version 9 renders proven accesses unchecked
    behind one window check per binding at entry and checks every other
    access against its buffer's window; version 10 renders each register
    tile as a top-level microkernel; version 11 packs lane pairs
    compactly into a reused array and stores a first writer's copy-out. *)

type plan = {
  p_name : string;
  p_layout : Binding.layout;
      (** where the kernel's [af]/[ai]/[al] cell arrays and [offs]
          offsets hold each bound tensor: the {!Binding.layout} of the
          function, whose bound buffers are all distinct *)
  p_diags : Diag.t list;
      (** warnings the render raised: an [Overflow] for each register
          tile whose lanes stay unpacked because their partial sums are
          not proven to fit *)
}
(** Binding plan: {!Emit_cache.run} loads the resolved bindings into the
    kernel's arguments with {!Binding.fill}. *)

val promote_tiles : Lower.func -> Lower.func * int
(** The accumulator-tile rewrite {!render} applies after expanding
    intrinsic calls, and the number of tiles it promoted, register
    tiles included.  For each bound buffer, the outermost serial loop it
    can be promoted over gets an [Alloc] tile of at most 1024 elements,
    a copy-in before the loop and a copy-out after it; a register tile
    first hoists the tile's column loops above the reduction, and a
    packed one starts from 0 and adds the initial value at copy-out, or,
    when the tiles are the first writers of the init nest's 0s and
    cover the buffer, stores its lanes and drops the init nest.  Packed tiles keep
    reading the weights themselves here: {!render} rewrites their loads
    to the compact pairs.
    The proof conditions are listed in [emit.ml]'s header.  A plain
    TIR→TIR pass: {!Interp} on the result equals {!Interp} on the
    input. *)

val render : Lower.func -> plan * string
(** [render func] is the binding plan and the complete OCaml source of
    the emitted module ([open Unit_emit_hook], [kernel] function, trailing
    [Unit_emit_hook.register] call).  Deterministic: equal functions
    render to equal sources, which is what content-addresses the
    compiled artifact.
    @raise Unsupported — see above. *)
