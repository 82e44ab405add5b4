(** Arithmetic analyses over index expressions.

    The tensorize replacement pass asks "with what constant stride does
    this loop variable move this memory access?" ({!coefficient_of}), and
    the static analyzer, the machine model and the engines ask "what range does
    this value cover?" ({!bounds}).  Both are conservative: [None] means
    "not provable". *)

val coefficient_of : Texpr.t -> Var.t -> int option
(** [coefficient_of e v] is [Some c] when [e] provably changes by exactly
    [c] for a unit step of [v] (i.e. [e] is linear in [v] with constant
    coefficient; [c = 0] when [e] does not mention [v]).  [None] when the
    dependence is nonlinear (through [Div]/[Mod]/[Load]/...). *)

val is_independent_of : Texpr.t -> Var.t -> bool
(** Purely syntactic: [v] does not occur in [e]. *)

val bounds :
  ?load:(Buffer.t -> (int * int) option) ->
  env:(Var.t -> (int * int) option) ->
  Texpr.t ->
  (int * int) option
(** Inclusive interval of an integer expression's value, given inclusive
    intervals for its variables ([env]) and for the values of loaded
    buffers ([load], default: none).  This is the one interval analysis
    proofs use: the static analyzer ([Analysis], [Footprint]), the
    machine model and both fast engines ([Compile], [Emit]) call it.

    Contract: every interval returned, for the whole expression and for
    each node on the way, fits that node's dtype, so wrapping the node's
    value to its dtype is the identity and the interval is the value the
    program computes; and every bound stays within [±2^30], so the
    analysis's own native arithmetic never overflows.  A node whose
    interval breaks either rule gives [None], and so does any arithmetic
    node computed from it.  Comparisons and the boolean connectives have [(0, 1)].
    [Div]/[Mod] need a constant positive divisor ([Mod] also a
    non-negative dividend); fused-loop decompositions produce these.
    [None] for float expressions, integer literals beyond [2^30], casts
    whose operand does not fit the target dtype, unbounded variables, and
    loads [load] does not bound. *)

val fit : Unit_dtype.Dtype.t -> int * int -> (int * int) option
(** [fit dt (lo, hi)] is [Some (lo, hi)] when the interval is non-empty,
    within [±2^30] and inside [dt]'s range (so [dt] is an integer dtype);
    [None] otherwise.  The rule {!bounds} applies at every node, for
    callers that bind variables to intervals. *)

val in_bounds : size:int -> (int * int) option -> bool
(** [in_bounds ~size iv]: the index interval [iv], as {!bounds} proved
    it, lies inside [[0, size)], so an access at any index it covers
    needs no check.  [false] for [None].  The one bounds rule of the fast
    engines: {!bounds}-proven accesses run unchecked in [Compile] and
    [Emit], every other access is checked against [[0, size)]. *)

val substitute_zero : Var.t list -> Texpr.t -> Texpr.t
(** Set the given variables to 0 — the "base index" of a register tile. *)
