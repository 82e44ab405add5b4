open Unit_dtype
open Unit_tir

(* Pretty-printer from lowered TIR to a self-contained OCaml module.

   Where {!Compile} builds closures, this renders the same program as flat
   OCaml source for ocamlopt.  {!render} first expands every intrinsic
   call into plain TIR with {!Unit_isa.Semantics.expand} — a loop nest
   built from the instruction's DSL description — so the renderer below
   knows only ordinary statements.  Bit-identity with the other engines
   comes from one discipline: every value a consumer observes is
   canonicalized exactly as {!Unit_dtype.Value} would — integers wrapped
   to their dtype, f32 results rounded through Int32 bits, float→int
   casts saturated — except where {!Unit_tir.Linear.bounds}, the interval
   analysis {!Compile} also uses, proves the canonicalization the
   identity.

   Deferred wraps.  For the modular integer dtypes (u8, i8, i16, i32)
   an [Add]/[Sub]/[Mul] result stays raw: an unwrapped native int.
   Native ints are arithmetic mod 2^63, and reduction mod 2^k commutes
   with that ring's [+], [-] and [*] because 2^k divides 2^63, so one
   wrap at the end of a chain equals a wrap after every op.  A raw value
   flows only into another [Add]/[Sub]/[Mul] of its dtype or into
   [Alloc] scratch of its dtype; loads from such scratch are raw.  Every
   other consumer — stores to bound buffers, [Let], comparisons,
   [Div]/[Mod]/[Min]/[Max], casts, [Select], indices — wraps it once,
   and the interval analysis never trusts a raw value.  [bool] always
   wraps: its canonicalizer is not a ring homomorphism.  A scalar cell —
   a one-element [Alloc] addressed only at index 0 — renders as a local
   [ref].

   Accumulator tiles.  Before rendering, {!promote_tiles} keeps each
   kernel's output tile out of memory across its whole reduction: for
   the outermost serial loop [L] over which a bound buffer [B] can be
   promoted, it builds a register tile (below) or else an array tile: it
   allocates [tile[T]], copies [B[base + i]] into it before [L], rewrites
   every access [B[base + off]] in [L] to [tile[off]], and copies the
   tile back after [L].  Being scratch, the tile accumulates raw, so an
   output wraps once per reduction instead of once per intrinsic call.
   The proof conditions, each checked on the index after inlining [L]'s
   [Let]s: [B] is loaded and stored in [L]; the index is an i32
   expression with no load and no cast, affine in the loops inside [L]
   ({!Unit_tir.Linear.coefficient_of}) and free of [L]'s own variable;
   [base], the index with those loops at 0, is structurally the same for
   every access; [off] is a mixed radix over those loops (strides 1, e1,
   e1·e2, ...), so each access covers exactly [[0, T)] and the copies
   touch only cells the loop touches; [T] ≤ [max_tile]; no access sits
   under an [If], in a [Select] branch or right of [And]/[Or]; [L] holds
   no parallel loop, no intrinsic call and no loop of extent 0; and every
   variable in [L] is bound once and not outside it, so inlining cannot
   capture.  Distinct bound buffers never share cells ({!Emit_cache}
   checks), so no other access reaches the window while the tile holds
   it.

   Register tiles.  [L] heads a perfect nest of loops, the chain.  The
   chain loops the tile's offsets read are its columns, the others its
   reduction; the offsets' other loops, below the chain, are its lanes.
   The columns are hoisted above the reduction, and the tile is promoted
   again over the reduction with the columns bound outside it, which
   leaves one column's lanes.  Hoisting keeps each cell's update order
   when the nest stores to nothing but [B] and scratch it allocates:
   every other load then reads a buffer the nest never stores, the first
   promotion makes each access's offset one-to-one, and the second makes
   every access share one base, so distinct column values own disjoint
   cells.  A single lane loop wider than [max_lanes] with stride 1 is
   split into passes of [max_lanes] lanes, hoisted like a column, when
   its body addresses bound buffers only (lanes then share no state).
   The tile left, 2 to [max_lanes] cells of a deferrable dtype (raw) or
   of a float dtype but f16 (canonical), whose offsets read only lane
   loops that unroll (extent ≤ 16, and only such loops inside them),
   and whose every update accumulates (see "Register tiles as
   microkernels"), renders as one local [ref] per cell, which ocamlopt
   keeps as a mutable variable; its lane loops unroll with literal
   indices.  First, the intrinsic expansion's accumulator cell, copied
   from a tile cell at the top of a lane iteration and back at its end,
   is merged into that cell ([forward_cells]).

   Lane pairs.  Two i32 lanes share one native int when every update of
   a register tile with one lane loop [l] is [tile[l] = tile[l] + a * w]
   inside [l]: [a] and [w] loads of u8/i8 buffers, [a]'s index free of
   [l] (the lanes share it), [w] reading [W[i + d·l]], [d > 0], from a
   bound buffer the kernel never stores.  The pair of lanes [2j] and
   [2j+1] accumulates from 0 in one local, and only the even lane copies
   render.  Lane [2j] is [(v lsl 32) asr 32] of the pair's sum [v], and
   lane [2j+1] is [(v + 2^30) asr 31], both split inline (a call into
   the hook, built [-opaque] in dev builds, would not inline).  Each is
   the lane's exact sum only while every lane's partial sum stays in
   [[-2^30, 2^30)]: {!Unit_tir.Linear.bounds} bounds [|a * w|] (32640
   for u8·i8), and the updates per lane times that bound must stay below
   2^30.  Otherwise the tile renders unpacked and the plan carries an
   [Overflow] warning.  Packing also waits until the multiplies it saves
   per run outnumber the weights it packs: a layer without weight reuse
   stays unpacked.

   The lanes read compact pairs: [W] is packed once per run before [par]
   ([Unit_emit_hook.pack_pairs]) into [P] of half its size, whose cell
   [d·q + r] is [W[2dq + r] + W[2dq + r + d] lsl 31].  Each access
   [W[ix]] in the lane loop becomes
   [P[ix']] ([compact_pairs]): [ix], with the [Let]s inside the tile
   inlined, is normalised to [c * atom] terms and a constant; the terms
   whose coefficient [2d] divides and the constant's multiple of [2d]
   form [2d·Q], the lane's [d·l] counts as [2d·(l/2)] ([l] is even in
   every copy that renders), and the rest, [R], must be proven inside
   [[0, d)].  Then [ix = 2d·Q + R] and [ix' = d·Q + R].  Both indices
   must be proven over the loops' extents (so no node wraps and the sum
   regroups exactly), and [W]'s size must be a multiple of [2d].
   Otherwise the tile renders unpacked.  The rewrite comes before
   {!hoist_terms}, so partials and pointer steps come out halved.
   {!promote_tiles} returns the tile before the rewrite, which is plain
   TIR.

   First-writer copy-outs.  A packed tile's copy-out adds each lane to
   the value it reads back, [w_i32 (B[i] + lane)], unless the tiles are
   [B]'s first writers and cover it: then each stores its lanes,
   canonical as they stand, and the init nest goes.  That needs four
   things.  A top-level statement before the tile's is a perfect nest
   storing 0 to [B] at an index that tiles [[0, size)] ([zero_fill]).
   No store to [B] but that one and the tile's loop's, and no load of
   [B] between them outside the tile's loop, so nothing reads a cell
   the init nest no longer zeroes.  No [If] guards the tile.  And the
   loops around the tile map each window to exactly one tile life and
   the windows tile [[0, size)] ([windows]): the window's base is a sum
   of digits [(v / div) mod m] of those loops' variables (a parallel
   loop's [v / c] and [v mod c] among them), each variable's digits
   spell it out, and by stride the digits form a mixed radix from [T],
   each stride exactly the span below it, so lives × [T] = size.

   Register tiles as microkernels.  Every update of a register tile
   accumulates, [tile[c] = tile[c] + e] with [e] free of the tile (a
   proof condition: any other candidate takes the array tile), and each
   renders as a top-level function [tile<n>] that the kernel calls once
   per tile, the shape of [Executor.kernel_4]: its cells' refs, its
   reduction loops, its body and its copy-out live in that small
   function, where ocamlopt's graph-colouring allocator keeps the cells
   in registers (in the kernel's one large function it spilled them).
   Its parameters are the names bound at the call that its source reads,
   typed where the storage class is known so array accesses specialise.
   Three rules shape it.  The body goes operand-major: a lane loop whose
   body is a perfect nest of unrolled loops around updates of the tile
   alone moves inside that nest ([operand_major]), so each hoisted
   operand [h<r>] is loaded just before the updates that read it, and
   every cell keeps its own update order.  A tile of a deferrable dtype
   (lane pairs, or wrapped integers) moves its longest reduction loop
   innermost: its sums are exact mod 2^k, so their order does not
   matter, and a lane pair's bound counts updates, not their order.
   Each partial of that loop's indices (see "Loop shaping") of the form
   [base + stride * v] then becomes a [ref] pointer, set to [base]
   before the loop and bumped by [stride] at the end of each iteration.
   A float tile keeps its loop order and its partials.

   Loop shaping.  A loop with no inner loop, a register tile's lane
   loop, or a loop moved outside one, with a static extent ≤ 16 is
   replicated with its index rendered as a literal.  Every other loop
   is a level (outermost 1), and ocamlopt moves no arithmetic out of a
   loop, so {!hoist_terms} does: each exact, load-free i32 term — every
   [Let] value and load or store index among them — is normalised to a
   sum of [c * atom] terms and a constant, with exact [Let]s inlined
   and [(a + b) * c] distributed.
   An atom (a variable, or a non-affine term such as [v mod 27]) goes
   with the deepest level it reads; an unrolled copy's index and a
   [Let] bound at the same level stay with the constant.  Each level's
   running partial sum is bound once at the top of its loop's body,
   the outermost partial of a bound buffer's index also taking the
   buffer's offset [o<k>] (compact pairs have their own array, at 0),
   so the innermost loop is left with [partial + c * v] and
   its copies with [partial + literal].  A partial is bound only when
   {!Unit_tir.Linear.bounds} proves it and every node building it fits
   i32; otherwise the term renders as it stands.  An offset-carrying
   partial keeps the interval proven for its value without the offset,
   which the bounds rule below reads.  A loop of extent 1
   that does not unroll becomes a [Let] of 0.  A proven constant
   renders as its literal.  In a loop whose body then has no loop left,
   unrolled or not, every load that runs on each iteration, is indexed
   by variables bound outside the loop, and reads a buffer the body
   never stores to is bound once before the loop.  That is only sound
   when distinct bound buffers never share storage; {!Emit_cache}
   checks the bound windows and falls back when two overlap.  A [Let]
   whose variable is never read and whose value loads nothing is
   dropped.

   Bounds.  Every array access renders as [Array.unsafe_get] or
   [Array.unsafe_set].  Where {!Unit_tir.Linear.in_bounds}, the bounds
   rule {!Compile} also uses, proves the index without the buffer's
   offset inside [[0, size)], the access is bare.  That is sound because
   the kernel first checks, once per bound tensor, that its window
   [[o<k>, o<k> + size)] lies inside its array
   ([Unit_emit_hook.check_window]); scratch is allocated at its size,
   and so are compact pairs, at half their weights' size, so their
   accesses are proven against [n/2].
   Any other access binds its index
   once and checks it against the buffer's window where it runs.  A
   failed check raises [Unit_emit_hook.Out_of_window] before the access
   it guards, and {!Emit_cache} falls back to the closure engine, which
   raises its own error (running on whatever the kernel already
   stored).

   The module opens {!Unit_emit_hook}, which holds the canonicalizers
   ([w_*], [sat_*], [r_bf16], [trunc*]), the bounds checks and the
   lane-pair pack, so each kernel's source is only its own code.

   The emitter refuses (raising {!Unsupported}) anything whose runtime
   behaviour it cannot reproduce statically — f16, float-dtyped scalar
   vars, and every call the expansion rejects (unregistered intrinsics,
   tiles the semantics layer would reject at run time, operands whose
   dtype differs from the instruction's).  {!Emit_cache} then falls back
   to {!Compile}, which reproduces the tree-walker's behaviour, errors
   included.  Alloc scratch visibility is lexical here, while Compile
   leaks the last array past the Alloc's scope: such programs fail to
   compile and take the fallback path too. *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let version = 11

module Obs = Unit_obs.Obs

let c_wraps_deferred = Obs.counter "emit.wraps_deferred"
let c_loops_unrolled = Obs.counter "emit.loops_unrolled"
let c_loads_hoisted = Obs.counter "emit.loads_hoisted"
let c_index_terms_hoisted = Obs.counter "emit.index_terms_hoisted"
let c_scalar_cells = Obs.counter "emit.scalar_cells"
let c_tiles_promoted = Obs.counter "emit.tiles_promoted"
let c_register_tiles = Obs.counter "emit.register_tiles"
let c_lanes_packed = Obs.counter "emit.lanes_packed"
let c_copyouts_stored = Obs.counter "emit.copyouts_stored"
let c_accesses_unchecked = Obs.counter "emit.accesses_unchecked"
let c_accesses_checked = Obs.counter "emit.accesses_checked"
let c_tiles_outlined = Obs.counter "emit.tiles_outlined"

type plan = {
  p_name : string;
  p_layout : Binding.layout;
  p_diags : Diag.t list;
}

module B = Stdlib.Buffer

(* Carrier of a dtype in the generated code: its storage class, as a
   native [int] (canonically wrapped), [float] (canonically rounded), or
   [int64]. *)
let carrier_of dt =
  if Dtype.equal dt Dtype.F16 then unsupported "f16 has no native carrier";
  Ndarray.class_of_dtype dt

(* Dtypes whose canonicalizer is reduction mod 2^k, a ring homomorphism
   from native ints, so their add/sub/mul chains may defer the wrap. *)
let deferrable = function
  | Dtype.U8 | Dtype.I8 | Dtype.I16 | Dtype.I32 -> true
  | _ -> false

let max_unroll = 16

let is_loop = function Stmt.For _ -> true | _ -> false

(* A loop {!render} replicates with literal indices: innermost or a
   register tile's lane loop ([is_lane]), at most [max_unroll] iterations
   whose indices fit the variable's dtype.  Parallel loops keep their
   fan. *)
let unrollable ~is_lane (s : Stmt.t) =
  match s with
  | Stmt.For { var; extent; kind; body } ->
    extent >= 1 && extent <= max_unroll
    && Linear.fit var.Var.dtype (0, extent - 1) <> None
    && (match kind with Stmt.Parallel -> false | _ -> true)
    && (is_lane var || not (Stmt.exists is_loop body))
  | _ -> false

(* Whether every loop in [body] unrolls. *)
let only_unrollable ~is_lane body =
  not (Stmt.exists (fun s -> is_loop s && not (unrollable ~is_lane s)) body)

(* The values a load of [b] may take, for {!Linear.bounds}: a narrow
   integer dtype's range, unless [b] is scratch holding raw values. *)
let load_range ~raw (b : Buffer.t) = if raw then None else Ndarray.narrow_range b.Buffer.dtype

(* The expressions a statement evaluates itself, children excluded. *)
let own_exprs (s : Stmt.t) =
  match s with
  | Stmt.Store (_, ix, v) -> [ ix; v ]
  | Stmt.If { cond; _ } -> [ cond ]
  | Stmt.Let (_, e, _) -> [ e ]
  | _ -> []

(* The ids of the variables [s] binds, with repeats. *)
let binders s =
  Stmt.fold_stmts
    (fun acc s ->
      match s with Stmt.For { var; _ } | Stmt.Let (var, _, _) -> var.Var.id :: acc | _ -> acc)
    [] s

(* Whether an expression [s] evaluates reads [v]. *)
let reads (v : Var.t) s =
  Stmt.exists
    (fun s -> List.exists (fun e -> List.exists (Var.equal v) (Texpr.vars_of e)) (own_exprs s))
    s

(* A one-element Alloc addressed only at the constant index 0. *)
let is_scalar_cell (b : Buffer.t) body =
  let off_zero (b', ix) = Buffer.equal b b' && Texpr.as_const_int ix <> Some 0 in
  b.Buffer.size = 1
  && not
       (Stmt.exists
          (fun s ->
            (match s with Stmt.Store (b', ix, _) -> off_zero (b', ix) | _ -> false)
            || List.exists
                 (fun e -> List.exists off_zero (Texpr.loads_of e))
                 (own_exprs s))
          body)

(* ---- accumulator tiles *)

let max_tile = 1024

(* Coefficients a normal form keeps: products stay far from overflow *)
let coefficient_cap = 1 lsl 30

exception Not_promotable

let not_promotable () = raise Not_promotable

(* The tile of buffer [b] for the loop [for l_var < extent do body]
   (see the header), as [Some (tile, base, body', radices)] with [base]
   the index of the window's first cell, [body'] the loop body
   addressing [tile] instead of [b] and [radices] each access's offset
   as (variable, stride, extent) digits; [None] when a proof condition
   fails.  [scope] holds the ids of the variables bound around the
   loop. *)
let promote_buffer ~scope (l_var : Var.t) extent body (b : Buffer.t) =
  (* every variable [body] binds: a Let's inlined value or a loop extent *)
  let env : (int, [ `Let of Texpr.t | `Loop of int ]) Hashtbl.t = Hashtbl.create 16 in
  let inline e =
    Texpr.substitute
      (List.filter_map
         (fun (v : Var.t) ->
           match Hashtbl.find_opt env v.Var.id with
           | Some (`Let x) -> Some (v, x)
           | _ -> None)
         (Texpr.vars_of e))
      e
  in
  let inner (v : Var.t) = Var.equal v l_var || Hashtbl.mem env v.Var.id in
  let rec has_cast (e : Texpr.t) =
    match e with
    | Texpr.Cast _ -> true
    | _ -> Texpr.fold_children (fun found c -> found || has_cast c) false e
  in
  (* (base index, T) of the first access *)
  let window = ref None in
  let loaded = ref false and stored = ref false in
  (* each access's lanes as (variable, stride, extent) *)
  let radices = ref [] in
  (* the tile offset of the access [b.(ix)]: [ix] is [base + off] with
     [off] the lanes' mixed radix over [0, T).  [coefficient_of] sees
     through casts, which may wrap, so an index with a cast is refused. *)
  let offset ~cond ix =
    let ix = inline ix in
    if cond || (not (Dtype.equal (Texpr.dtype_of ix) Dtype.I32))
       || Texpr.loads_of ix <> [] || has_cast ix
    then not_promotable ();
    let lanes =
      List.map
        (fun (v : Var.t) ->
          match Hashtbl.find_opt env v.Var.id, Linear.coefficient_of ix v with
          | Some (`Loop n), Some s -> (v, s, n)
          | _ -> not_promotable ())
        (List.filter inner (Texpr.vars_of ix))
    in
    let t =
      List.fold_left
        (fun t (_, s, n) -> if s = t then t * n else not_promotable ())
        1
        (List.sort (fun (_, s1, n1) (_, s2, n2) -> compare (s1, n1) (s2, n2)) lanes)
    in
    radices := lanes :: !radices;
    let base = Linear.substitute_zero (List.map (fun (v, _, _) -> v) lanes) ix in
    (match !window with
     | None -> if t <= max_tile then window := Some (base, t) else not_promotable ()
     | Some (base', t') ->
       if t <> t' || not (Texpr.equal_structural base base') then not_promotable ());
    List.fold_left
      (fun acc (v, s, _) -> Texpr.add acc (Texpr.mul (Texpr.int_imm s) (Texpr.var v)))
      (Texpr.int_imm 0) lanes
  in
  (* [body] with [b]'s accesses addressing [target] at their offsets;
     [cond] marks code that may not run on every iteration, so [ex]
     matches every node itself: [And]/[Or] right operands and [Select]
     branches are conditional *)
  let rec ex target ~cond (e : Texpr.t) =
    match e with
    | Texpr.Imm _ | Texpr.Var _ -> e
    | Texpr.Load (b', ix) when Buffer.equal b' b ->
      loaded := true;
      Texpr.load target (offset ~cond ix)
    | Texpr.Load (b', ix) -> Texpr.load b' (ex target ~cond ix)
    | Texpr.Binop (op, x, y) -> Texpr.binop op (ex target ~cond x) (ex target ~cond y)
    | Texpr.Cmp (op, x, y) -> Texpr.cmp op (ex target ~cond x) (ex target ~cond y)
    | Texpr.And (x, y) -> Texpr.and_ (ex target ~cond x) (ex target ~cond:true y)
    | Texpr.Or (x, y) -> Texpr.or_ (ex target ~cond x) (ex target ~cond:true y)
    | Texpr.Not x -> Texpr.not_ (ex target ~cond x)
    | Texpr.Cast (dt, x) -> Texpr.cast dt (ex target ~cond x)
    | Texpr.Select (c, x, y) ->
      Texpr.select (ex target ~cond c) (ex target ~cond:true x) (ex target ~cond:true y)
  in
  let rec st target ~cond (s : Stmt.t) =
    match s with
    | Stmt.Nop -> s
    | Stmt.Seq l -> Stmt.Seq (List.map (st target ~cond) l)
    | Stmt.Store (b', ix, v) ->
      let v = ex target ~cond v in
      if Buffer.equal b' b then begin
        stored := true;
        Stmt.Store (target, offset ~cond ix, v)
      end
      else Stmt.Store (b', ex target ~cond ix, v)
    | Stmt.For ({ var; extent; kind; body } as r) ->
      (match kind with Stmt.Parallel -> not_promotable () | _ -> ());
      if extent < 1 then not_promotable ();
      Hashtbl.replace env var.Var.id (`Loop extent);
      Stmt.For { r with body = st target ~cond body }
    | Stmt.If { cond = c; likely; then_; else_ } ->
      let st = st target ~cond:true in
      Stmt.If
        { cond = ex target ~cond:true c; likely; then_ = st then_;
          else_ = Option.map st else_ }
    | Stmt.Let (v, e, body) ->
      Hashtbl.replace env v.Var.id (`Let (inline e));
      Stmt.Let (v, ex target ~cond e, st target ~cond body)
    | Stmt.Alloc (a, body) -> Stmt.Alloc (a, st target ~cond body)
    | Stmt.Intrin_call _ -> not_promotable ()
  in
  (* inlining is capture-free when every variable is bound once *)
  let binders = l_var.Var.id :: binders body in
  let distinct = List.sort_uniq compare binders in
  match
    if extent < 1
       || List.length distinct <> List.length binders
       || List.exists (fun id -> List.mem id scope) binders
    then not_promotable ();
    ignore (st b ~cond:false body : Stmt.t);
    if not (!loaded && !stored) then not_promotable ();
    match !window with
    | None -> not_promotable ()
    | Some (base, t) ->
      let tile =
        Buffer.create ~name:(b.Buffer.name ^ ".tile") ~dtype:b.Buffer.dtype ~size:t ()
      in
      radices := [];
      let body = st tile ~cond:false body in
      (tile, base, body, !radices)
  with
  | r -> Some r
  | exception Not_promotable -> None

(* A rolled copy over the cells of [tile]; one element needs no loop. *)
let copy_cells (tile : Buffer.t) f =
  let t = tile.Buffer.size in
  if t = 1 then f (Texpr.int_imm 0)
  else
    let k = Var.create "k" in
    Stmt.for_ k ~extent:t (f (Texpr.var k))

(* [e] as [Some (terms, c)]: the sum of [k * atom] over [terms] plus
   [c], where an atom is a subterm other than a literal or an [Add],
   [Sub] or [Mul] by a literal.  Like atoms merge and zero terms drop;
   [None] when a coefficient leaves [±2^30] on the way, so no product
   overflows. *)
let linear_form e =
  let fit k = if abs k > coefficient_cap then raise Exit else k in
  let add (ts, c) (us, d) =
    let merge ts (a, k) =
      match List.find_opt (fun (b, _) -> Texpr.equal_structural a b) ts with
      | None -> ts @ [ (a, k) ]
      | Some (b, j) ->
        List.filter_map
          (fun (x, i) ->
            if not (Texpr.equal_structural x b) then Some (x, i)
            else if j + k = 0 then None
            else Some (x, fit (j + k)))
          ts
    in
    (List.fold_left merge ts us, fit (c + d))
  in
  let scale k (ts, c) =
    if k = 0 then ([], 0) else (List.map (fun (a, j) -> (a, fit (k * j))) ts, fit (k * c))
  in
  let rec go (e : Texpr.t) =
    match e with
    | Texpr.Binop (Texpr.Add, a, b) -> add (go a) (go b)
    | Texpr.Binop (Texpr.Sub, a, b) -> add (go a) (scale (-1) (go b))
    | Texpr.Binop (Texpr.Mul, a, b) -> (
      match go a, go b with ([], k), f | f, ([], k) -> scale k f | _ -> ([ (e, 1) ], 0))
    | _ -> ( match Texpr.as_const_int e with Some c -> ([], fit c) | None -> ([ (e, 1) ], 0))
  in
  match go e with f -> Some f | exception Exit -> None

(* The digit [(v / div) mod m] of a loop variable [v] an atom reads, as
   [(v, div, Some m)], or [(v, div, None)] without the [mod]. *)
let rec digit (e : Texpr.t) =
  let by x y f =
    match digit x, Texpr.as_const_int y with
    | Some (v, div, None), Some c when c > 0 -> Some (f v div c)
    | _ -> None
  in
  match e with
  | Texpr.Var v -> Some (v, 1, None)
  | Texpr.Binop (Texpr.Div, x, y) -> by x y (fun v div c -> (v, div * c, None))
  | Texpr.Binop (Texpr.Mod, x, y) -> by x y (fun v div c -> (v, div, Some c))
  | _ -> None

(* [Some span] when the windows [[base, base + t)] that the iterations
   of the loops [outer] ([(var, extent)], outermost first) start tile
   [[0, span)], each cell in exactly one window.  [base] must be a sum
   of positive multiples of digits of the loop variables, proven free
   of wraps over the loops' extents, the digits of each variable must
   spell it out (strides 1, m1, m1·m2, ..., the last without [mod] or
   past the extent), and the digits, by stride, must be a mixed radix
   from [t]: each stride exactly the span of the ones below it ([t] for
   the first).  Two iterations then differ in some digit, and their
   windows in at least [t].  [span] is the last stride times its
   extent. *)
let windows ~outer base t =
  let extent (v : Var.t) =
    List.find_map (fun ((u : Var.t), n) -> if Var.equal u v then Some n else None) outer
  in
  (* each digit as (variable, div, mod, stride) *)
  let digit_of (a, k) =
    match digit a with
    | Some (v, div, m) when k > 0 && extent v <> None -> (v, div, m, k)
    | _ -> raise Exit
  in
  let spelled digits ((v : Var.t), n) =
    let mine =
      List.sort compare
        (List.filter_map
           (fun ((u : Var.t), div, m, _) -> if Var.equal u v then Some (div, m) else None)
           digits)
    in
    let rec chain at = function
      | [] -> n <= at
      | (div, m) :: rest -> (
        div = at && match m with Some m -> chain (div * m) rest | None -> rest = [])
    in
    n >= 1 && (n = 1 || chain 1 mine)
  in
  let interval = Linear.bounds ~env:(fun v -> Option.map (fun n -> (0, n - 1)) (extent v)) in
  match linear_form base with
  | Some (terms, 0) when interval base <> None -> (
    try
      let digits = List.map digit_of terms in
      if not (List.for_all (spelled digits) outer) then raise Exit;
      let radix =
        List.sort compare
          (List.filter_map
             (fun (v, div, m, k) ->
               let n = Option.get (extent v) in
               let e = ((n - 1) / div) + 1 in
               let e = match m with Some m -> Stdlib.min m e | None -> e in
               if e > 1 then Some (k, e) else None)
             digits)
      in
      Some (List.fold_left (fun at (k, e) -> if k <> at then raise Exit else k * e) t radix)
    with Exit -> None)
  | _ -> None

(* ---- register tiles *)

(* Lanes one register tile holds; a longer lane loop runs in passes. *)
let max_lanes = 8

(* Lanes [2j] and [2j+1] of a register tile share one native int: they
   multiply the same activation by weights [pr_dist] cells apart in
   [pr_weights], a bound buffer the kernel never stores.  Inside the
   lane loop [pr_lane] they read those weights' compact pairs,
   [pr_pairs] (see the header's "Lane pairs"). *)
type pairing = {
  pr_weights : Buffer.t;
  pr_dist : int;
  pr_lane : Var.t;
  pr_pairs : Buffer.t;
}

type tiling = {
  tl_func : Lower.func;
  tl_tiles : int;  (* promoted tiles, register tiles included *)
  tl_registers : (int, pairing option) Hashtbl.t;  (* register tile id -> its pairing *)
  tl_compact : (int, Stmt.t) Hashtbl.t;
      (* packed tile id -> its [Alloc]'s body reading the compact pairs *)
  tl_stored : (int, unit) Hashtbl.t;
      (* register tiles whose copy-out stores, their init nest gone *)
  tl_lanes : (int, Buffer.t) Hashtbl.t;  (* lane loop variable id -> its register tile *)
  tl_unrolled : (int, unit) Hashtbl.t;  (* loops moved outside a tile's lanes *)
  tl_strided : (int, unit) Hashtbl.t;  (* reduction loops stepping by pointer *)
  tl_diags : Diag.t list;
}

(* The loops of the perfect nest [s] heads, outermost first, and the
   body of the innermost. *)
let rec perfect_nest (s : Stmt.t) =
  match s with
  | Stmt.For { var; extent; kind; body } ->
    let loops, inner = match body with Stmt.For _ -> perfect_nest body | _ -> ([], body) in
    ((var, extent, kind) :: loops, inner)
  | _ -> ([], s)

let nest loops inner =
  List.fold_right (fun (var, extent, kind) body -> Stmt.for_ var ~extent ~kind body) loops inner

(* Whether [s] stores 0 to every cell of [b], and nothing else: a
   perfect nest around [b[ix] = 0] whose index tiles [[0, size)]. *)
let zero_fill (b : Buffer.t) s =
  match perfect_nest s with
  | loops, Stmt.Store (b', ix, v) when Buffer.equal b b' && Texpr.as_const_int v = Some 0 ->
    windows ~outer:(List.map (fun (v, n, _) -> (v, n)) loops) ix 1 = Some b.Buffer.size
  | _ -> false

(* [s] with every access to the one-element [cell] addressing [tile.(ix)]. *)
let retarget (cell : Buffer.t) (tile : Buffer.t) ix s =
  let rec ex (e : Texpr.t) =
    match e with
    | Texpr.Load (b, _) when Buffer.equal b cell -> Texpr.load tile ix
    | _ -> Texpr.map_children ex e
  in
  let rec st (s : Stmt.t) =
    match s with
    | Stmt.Store (b, _, v) when Buffer.equal b cell -> Stmt.Store (tile, ix, ex v)
    | Stmt.Store (b, i, v) -> Stmt.Store (b, ex i, ex v)
    | Stmt.If ({ cond; then_; else_; _ } as r) ->
      Stmt.If { r with cond = ex cond; then_ = st then_; else_ = Option.map st else_ }
    | Stmt.Let (v, e, body) -> Stmt.Let (v, ex e, st body)
    | _ -> Stmt.map_children st s
  in
  st s

(* The intrinsic expansion's accumulator cell folded into the register
   tile it mirrors: [alloc c; for .. { c = tile[ix]; mid; tile[ix] = c }]
   becomes [for .. { mid }] with [mid] addressing [tile.(ix)] for [c].
   Both hold the same raw value throughout when [mid] never touches
   [tile], addresses [c] only at 0 and binds no variable [ix] reads. *)
let forward_cells (tile : Buffer.t) body =
  let zero e = Texpr.as_const_int e = Some 0 in
  (* the values of the enclosing [Let]s, inlined, so two names of one
     index compare equal *)
  let lets = ref [] in
  let inline e = Texpr.substitute !lets e in
  let rec strip (c : Buffer.t) (s : Stmt.t) =
    match s with
    | Stmt.For ({ body; _ } as r) -> Option.map (fun body -> Stmt.For { r with body }) (strip c body)
    | Stmt.Seq (Stmt.Store (c', z, Texpr.Load (t, ix)) :: rest)
      when Buffer.equal c' c && zero z && Buffer.equal t tile -> (
      match List.rev rest with
      | Stmt.Store (t', ix', Texpr.Load (c'', z')) :: mid
        when Buffer.equal t' tile && Buffer.equal c'' c && zero z'
             && Texpr.equal_structural (inline ix) (inline ix') ->
        let mid = Stmt.seq (List.rev mid) in
        let bound = binders mid in
        if Texpr.loads_of ix <> []
           || List.exists (fun (v : Var.t) -> List.mem v.Var.id bound) (Texpr.vars_of ix)
           || List.exists (Buffer.equal tile) (Stmt.buffers_of mid)
           || not (is_scalar_cell c mid)
        then None
        else Some (retarget c tile ix mid)
      | _ -> None)
    | _ -> None
  in
  let rec go (s : Stmt.t) =
    match s with
    | Stmt.Alloc (c, inner)
      when c.Buffer.size = 1 && Dtype.equal c.Buffer.dtype tile.Buffer.dtype -> (
      match strip c inner with Some s -> go s | None -> Stmt.Alloc (c, go inner))
    | Stmt.Let (v, e, body) ->
      let outer = !lets in
      lets := (v, inline e) :: outer;
      let body = go body in
      lets := outer;
      Stmt.Let (v, e, body)
    | _ -> Stmt.map_children go s
  in
  go body

(* Dtypes a register tile holds: the deferrable integers, raw, and the
   floats but f16, canonical. *)
let register_dtype dt =
  deferrable dt || match dt with Dtype.F32 | Dtype.F64 | Dtype.Bf16 -> true | _ -> false

let byte_dtype (b : Buffer.t) = match b.Buffer.dtype with Dtype.U8 | Dtype.I8 -> true | _ -> false

exception Unpaired

(* Whether the lanes of register tile [tile] pair up (see the header):
   [Ok (Some p)] packs them, [Ok None] when the updates in [region] are
   not lane-pair shaped or packing does not pay, [Error d] when they are
   but {!Linear.bounds} does not prove every lane's partial sum inside
   [[-2^30, 2^30)].  [weights] says which buffers may be packed once per
   run, [pairs w d dtype] gives the buffer of [w]'s compact pairs;
   [region] runs [trips] times per run. *)
let pair_lanes ~name ~weights ~pairs ~trips (tile : Buffer.t) lanes region =
  match lanes with
  | [ (l : Var.t) ] when tile.Buffer.size mod 2 = 0 -> (
    let pairing = ref None in
    let updates = ref 0 and widest = ref 0 and proven = ref true in
    let lane_offset ix =
      Linear.coefficient_of ix l = Some 1
      && Texpr.as_const_int (Linear.substitute_zero [ l ] ix) = Some 0
    in
    let byte_load (e : Texpr.t) =
      match e with
      | Texpr.Cast (_, Texpr.Load (b, ix)) when byte_dtype b -> Some (b, ix)
      | Texpr.Load (b, ix) when byte_dtype b -> Some (b, ix)
      | _ -> None
    in
    (* a broadcast byte [a] times byte weights [d] cells apart per lane *)
    let factors a w =
      match byte_load a, byte_load w with
      | Some (_, ia), Some (wb, iw) when weights wb && Linear.is_independent_of ia l -> (
        match Linear.coefficient_of iw l with Some d when d > 0 -> Some (wb, d) | _ -> None)
      | _ -> None
    in
    let update ix (v : Texpr.t) =
      let own (e : Texpr.t) =
        match e with
        | Texpr.Load (t, ix') -> Buffer.equal t tile && Texpr.equal_structural ix ix'
        | _ -> false
      in
      let prod =
        match v with
        | Texpr.Binop (Texpr.Add, a, p) when own a -> p
        | Texpr.Binop (Texpr.Add, p, a) when own a -> p
        | _ -> raise Unpaired
      in
      let w, d =
        match prod with
        | Texpr.Binop (Texpr.Mul, x, y) -> (
          match factors x y with
          | Some f -> f
          | None -> (match factors y x with Some f -> f | None -> raise Unpaired))
        | _ -> raise Unpaired
      in
      (match !pairing with
       | None -> pairing := Some (w, d)
       | Some (w', d') -> if not (Buffer.equal w' w && d' = d) then raise Unpaired);
      match Linear.bounds ~env:(fun _ -> None) ~load:(load_range ~raw:false) prod with
      | Some (lo, hi) -> widest := Stdlib.max !widest (Stdlib.max (abs lo) (abs hi))
      | None -> proven := false
    in
    let cap = 1 lsl 31 in
    let times a n = if n > 0 && a > cap / n then cap else a * n in
    let touches e = List.exists (fun (b, _) -> Buffer.equal b tile) (Texpr.loads_of e) in
    (* [mult]: how often [s] runs per lane of one tile life.  Inside the
       lane loop only the tile's updates may run: the odd lanes' copies
       are dropped. *)
    let rec walk ~lane mult (s : Stmt.t) =
      match s with
      | Stmt.Nop -> ()
      | Stmt.Seq l -> List.iter (walk ~lane mult) l
      | Stmt.For { var; extent; body; _ } ->
        if Var.equal var l then
          if lane then raise Unpaired else walk ~lane:true mult body
        else walk ~lane (times mult extent) body
      | Stmt.Store (t, ix, v) when Buffer.equal t tile ->
        if not (lane && lane_offset ix) then raise Unpaired;
        update ix v;
        updates := Stdlib.min cap (!updates + mult)
      | _ when lane || List.exists touches (own_exprs s) -> raise Unpaired
      | Stmt.Let (_, _, body) | Stmt.Alloc (_, body) -> walk ~lane mult body
      | Stmt.If { then_; else_; _ } ->
        walk ~lane mult then_;
        Option.iter (walk ~lane mult) else_
      | Stmt.Store _ | Stmt.Intrin_call _ -> ()
    in
    match walk ~lane:false 1 region with
    | exception Unpaired -> Ok None
    | () -> (
      match !pairing with
      | None -> Ok None
      | Some (w, d) ->
        let limit = (1 lsl 30) - 1 in
        (* packing touches every weight once per run to save one
           multiply per pair update *)
        let saved = times (times trips !updates) (tile.Buffer.size / 2) in
        if !proven && (!widest = 0 || !updates <= limit / !widest) then
          Ok
            (if saved >= w.Buffer.size then
               Some
                 { pr_weights = w; pr_dist = d; pr_lane = l;
                   pr_pairs = pairs w d tile.Buffer.dtype }
             else None)
        else
          Error
            (Diag.warnf Diag.Overflow
               "%s: lanes of %s stay unpacked: %d updates per lane of |a*w| <= %d may \
                leave [-2^30, 2^30)"
               name tile.Buffer.name !updates !widest)))
  | _ -> Ok None

(* [s] with each load of [p]'s weights inside its lane loop reading the
   compact pairs instead (see the header's "Lane pairs"): [W[2d·Q + R]]
   becomes [P[d·Q + R]], where [R] gathers the terms whose coefficient
   [2d] does not divide and is proven inside [[0, d)], and the lane's
   [d·l] counts as [2d·(l/2)], [l] being even in every copy that
   renders.  Both indices must be proven free of wraps, so the sum
   regroups exactly.  [None] where the rule fails.  [outer]: the loops
   around [s], as [(var, extent)]. *)
let compact_pairs ~outer (p : pairing) s =
  let d = p.pr_dist and l = p.pr_lane in
  let extents = Hashtbl.create 16 in
  List.iter (fun ((v : Var.t), n) -> Hashtbl.replace extents v.Var.id n) outer;
  let bounds =
    Linear.bounds ~env:(fun (v : Var.t) ->
        Option.map (fun n -> (0, n - 1)) (Hashtbl.find_opt extents v.Var.id))
  in
  let lets = ref [] in
  let index ix =
    let ix = Texpr.substitute !lets ix in
    let terms, c = match linear_form ix with Some f -> f | None -> raise Unpaired in
    let lane ((a : Texpr.t), k) = k = d && match a with Texpr.Var v -> Var.equal v l | _ -> false in
    let whole (a, k) = k mod (2 * d) = 0 && Linear.is_independent_of a l in
    let r0 = ((c mod (2 * d)) + (2 * d)) mod (2 * d) in
    let sum init ts =
      List.fold_left (fun acc (a, k) -> Texpr.add acc (Texpr.mul (Texpr.int_imm k) a)) init ts
    in
    let r = sum (Texpr.int_imm r0) (List.filter (fun t -> not (whole t || lane t)) terms) in
    let q =
      sum
        (Texpr.int_imm ((c - r0) / 2))
        (List.filter_map (fun (a, k) -> if whole (a, k) then Some (a, k / 2) else None) terms)
    in
    let half_lane = Texpr.div (Texpr.var l) (Texpr.int_imm 2) in
    let ix' = Texpr.add (Texpr.add q (Texpr.mul (Texpr.int_imm d) half_lane)) r in
    match bounds r, bounds ix, bounds ix' with
    | Some (lo, hi), Some _, Some _
      when lo >= 0 && hi < d && List.exists lane terms && Dtype.equal (Texpr.dtype_of ix) Dtype.I32 ->
      ix'
    | _ -> raise Unpaired
  in
  let rec ex (e : Texpr.t) =
    match e with
    | (Texpr.Load (w, ix) | Texpr.Cast (_, Texpr.Load (w, ix))) when Buffer.equal w p.pr_weights ->
      if not (Dtype.equal (Texpr.dtype_of e) p.pr_pairs.Buffer.dtype) then raise Unpaired;
      Texpr.load p.pr_pairs (index ix)
    | _ -> Texpr.map_children ex e
  in
  let rec st ~lane (s : Stmt.t) =
    match s with
    | Stmt.For ({ var; extent; body; _ } as r) ->
      Hashtbl.replace extents var.Var.id extent;
      Stmt.For { r with body = st ~lane:(lane || Var.equal var l) body }
    | Stmt.Let (v, e, body) ->
      lets := (v, Texpr.substitute !lets e) :: !lets;
      Stmt.Let (v, e, st ~lane body)
    | Stmt.Store (b, ix, v) when lane -> Stmt.Store (b, ix, ex v)
    | _ -> Stmt.map_children (st ~lane) s
  in
  if p.pr_weights.Buffer.size mod (2 * d) <> 0 then None
  else match st ~lane:false s with s -> Some s | exception Unpaired -> None

(* [s], a run of [Let]s around the lane loop [l], with that loop split
   into passes of [max_lanes] lanes: [Some (pass, lane, s')] where the
   loop [pass] is to run around [s'], whose lane loop [lane] covers the
   lanes [max_lanes * pass + lane].  Passes may run one after another
   only when lane iterations share no state: the lane body addresses
   bound buffers only. *)
let split_lanes ~bound (l : Var.t) s =
  let rec go (s : Stmt.t) =
    match s with
    | Stmt.Let (v, e, body) ->
      Option.map (fun (p, lane, body) -> (p, lane, Stmt.Let (v, e, body))) (go body)
    | Stmt.For { var; extent; kind; body }
      when Var.equal var l && extent mod max_lanes = 0
           && List.for_all bound (Stmt.buffers_of body) ->
      let pass = Var.create "pass" and lane = Var.create l.Var.name in
      let at =
        Texpr.add (Texpr.mul (Texpr.int_imm max_lanes) (Texpr.var pass)) (Texpr.var lane)
      in
      Some
        ( (pass, extent / max_lanes, Stmt.Serial),
          lane,
          Stmt.for_ lane ~extent:max_lanes ~kind (Stmt.substitute [ (l, at) ] body) )
    | _ -> None
  in
  go s

(* ---- microkernels *)

(* Whether every access of [tile] in [s] is an update
   [tile[ix] = tile[ix] + e] with [e] free of [tile]. *)
let accumulates (tile : Buffer.t) s =
  let reads e = List.exists (fun (b, _) -> Buffer.equal b tile) (Texpr.loads_of e) in
  let own ix (e : Texpr.t) =
    match e with
    | Texpr.Load (t, ix') -> Buffer.equal t tile && Texpr.equal_structural ix ix'
    | _ -> false
  in
  not
    (Stmt.exists
       (fun s ->
         match s with
         | Stmt.Store (t, ix, v) when Buffer.equal t tile -> (
           reads ix
           ||
           match v with
           | Texpr.Binop (Texpr.Add, a, e) when own ix a -> reads e
           | Texpr.Binop (Texpr.Add, e, a) when own ix a -> reads e
           | _ -> true)
         | _ -> List.exists reads (own_exprs s))
       s)

(* The tile's lane loop [l] turned operand-major:
   [for l { for k.. { updates } }] becomes [for k.. { for l { updates } }]
   when the updates store to [tile] only, so each lane's accumulator
   keeps its own update order.  Returns the statement and the loops [k..]
   moved out, which now unroll around the lanes. *)
let operand_major (tile : Buffer.t) lanes inner =
  let moved = ref [] in
  let updates_only s =
    not
      (Stmt.exists
         (function
           | Stmt.Store (t, _, _) -> not (Buffer.equal t tile)
           | Stmt.Seq _ | Stmt.Nop -> false
           | _ -> true)
         s)
  in
  let is_lane (v : Var.t) = List.exists (Var.equal v) lanes in
  let rec go (s : Stmt.t) =
    match s with
    | Stmt.For ({ var; body; _ } as r) when is_lane var -> (
      match perfect_nest body with
      | (_ :: _ as ks), leaf
        when updates_only leaf && not (List.exists (fun (k, _, _) -> is_lane k) ks) ->
        moved := List.map (fun (k, _, _) -> k) ks @ !moved;
        nest ks (Stmt.For { r with body = leaf })
      | _ -> s)
    | _ -> Stmt.map_children go s
  in
  let s = go inner in
  (s, !moved)

(* How a register tile renders (see the header's "Register tiles as
   microkernels"). *)
type microkernel = {
  mk_unrolled : Var.t list;  (* loops moved outside the lanes, unrolled *)
  mk_strided : Var.t option;  (* the reduction loop whose indices step by pointer *)
}

(* The reduction nest [loops] (outermost first) around [inner] of the
   accumulating register tile [tile], reshaped as a microkernel: it goes
   operand-major, and an integer tile also moves its longest reduction
   loop innermost, as its sums do not depend on their order. *)
let microkernel (tile : Buffer.t) lanes loops inner =
  let inner, moved = operand_major tile lanes inner in
  if not (deferrable tile.Buffer.dtype) then
    (nest loops inner, { mk_unrolled = moved; mk_strided = None })
  else
    let longest =
      List.fold_left
        (fun best ((_, n, _) as l) ->
          match best with Some (_, m, _) when m > n -> best | _ -> Some l)
        None loops
    in
    let loops =
      match longest with
      | Some ((v, _, _) as l) ->
        List.filter (fun ((u : Var.t), _, _) -> not (Var.equal u v)) loops @ [ l ]
      | None -> loops
    in
    let strided = Option.map (fun (v, _, _) -> v) longest in
    (nest loops inner, { mk_unrolled = moved; mk_strided = strided })

(* The loop [loop] (serial) rewritten around a register tile of bound
   buffer [b] (see the header): [Some (stmt, tile, lanes, pairing,
   microkernel, compact, stored)] with [lanes] the loops the tile's
   offsets read, [compact] the tile's [Alloc] body reading compact
   pairs when it packs, and [stored] when its copy-out stores over the
   init nest's 0 and the tiles cover [b]; [None] when a proof condition
   fails.  [loop] runs [trips] times per run, inside the loops [outer]
   ([(var, extent)]), under an [If] when [guarded]; [fresh b] when [b]
   holds the init nest's 0 as [loop] starts, no store but [loop]'s
   changes it, and no load outside [loop] reads it before [loop]'s
   top-level statement ends. *)
let register_tile ~scope ~outer ~guarded ~fresh ~trips ~name ~bound ~weights ~pairs
    (loop : Stmt.t) (b : Buffer.t) =
  let loops, inner = perfect_nest loop in
  match loops with
  | [] -> None
  | (l_var, l_ext, _) :: rest -> (
    match promote_buffer ~scope l_var l_ext (nest rest inner) b with
    | None -> None
    | Some (_, _, _, radices) -> (
      let digits = List.concat radices in
      let mem (v : Var.t) = List.exists (fun ((u : Var.t), _, _) -> Var.equal u v) in
      let cols, reds = List.partition (fun (v, _, _) -> mem v digits) loops in
      let lanes =
        List.sort_uniq Var.compare
          (List.filter_map (fun (v, _, _) -> if mem v loops then None else Some v) digits)
      in
      let inner = forward_cells b inner in
      (* a lane loop wider than a tile runs in passes, hoisted like a column *)
      let passes, lanes, inner =
        match lanes with
        | [ l ]
          when List.for_all
                 (List.exists (fun ((v : Var.t), s, n) -> Var.equal v l && s = 1 && n > max_lanes))
                 radices -> (
          match split_lanes ~bound l inner with
          | Some (pass, lane, inner) -> ([ pass ], [ lane ], inner)
          | None -> ([], lanes, inner))
        | _ -> ([], lanes, inner)
      in
      let is_lane (v : Var.t) = List.exists (Var.equal v) lanes in
      (* each lane loop unrolls, and so does every loop inside it *)
      let lane_loops_unroll =
        List.for_all
          (fun v ->
            Stmt.exists
              (function
                | Stmt.For { var; body; _ } as s when Var.equal var v ->
                  unrollable ~is_lane s && only_unrollable ~is_lane body
                | _ -> false)
              inner)
          lanes
      in
      let allocs =
        Stmt.fold_stmts
          (fun acc s -> match s with Stmt.Alloc (a, _) -> a.Buffer.id :: acc | _ -> acc)
          [] inner
      in
      let stores_only_tile =
        not
          (Stmt.exists
             (function
               | Stmt.Store (t, _, _) -> not (Buffer.equal t b || List.mem t.Buffer.id allocs)
               | _ -> false)
             inner)
      in
      let cols = cols @ passes in
      let col_ids = List.map (fun ((v : Var.t), _, _) -> v.Var.id) cols in
      match reds with
      | (r_var, r_ext, r_kind) :: reds
        when lane_loops_unroll && stores_only_tile && register_dtype b.Buffer.dtype -> (
        (* [body] is [reds] around the tile's rewritten [inner] *)
        let rec peel n (s : Stmt.t) =
          match s with Stmt.For { body; _ } when n > 0 -> peel (n - 1) body | _ -> s
        in
        match promote_buffer ~scope:(col_ids @ scope) r_var r_ext (nest reds inner) b with
        | Some (tile, base, body, _)
          when tile.Buffer.size >= 2 && tile.Buffer.size <= max_lanes
               && accumulates tile (peel (List.length reds) body) ->
          let region = Stmt.for_ r_var ~extent:r_ext ~kind:r_kind body in
          let trips = List.fold_left (fun t (_, n, _) -> t * n) trips cols in
          let pairing =
            if deferrable tile.Buffer.dtype then
              pair_lanes ~name ~weights ~pairs ~trips tile lanes region
            else Ok None
          in
          let region, shape =
            microkernel tile lanes ((r_var, r_ext, r_kind) :: reds) (peel (List.length reds) body)
          in
          let outer = outer @ List.map (fun (v, n, _) -> (v, n)) cols in
          (* a packed tile reads compact pairs, or else stays unpacked *)
          let pairing, compact =
            match pairing with
            | Ok (Some p) -> (
              match compact_pairs ~outer p region with
              | Some c -> (pairing, Some c)
              | None -> (Ok None, None))
            | _ -> (pairing, None)
          in
          let stored =
            match pairing with
            | Ok (Some _) when fresh b && not guarded ->
              windows ~outer base tile.Buffer.size = Some b.Buffer.size
            | _ -> false
          in
          let at k = Texpr.add base k in
          let copies region =
            match pairing with
            | Ok (Some _) when stored ->
              (* the pairs accumulate from 0 and are the window's first writer *)
              [ region; copy_cells tile (fun k -> Stmt.Store (b, at k, Texpr.load tile k)) ]
            | Ok (Some _) ->
              (* the pairs accumulate from 0; copy-out adds the initial value *)
              [ region;
                copy_cells tile (fun k ->
                    Stmt.Store
                      (b, at k, Texpr.add (Texpr.load b (at k)) (Texpr.load tile k))) ]
            | _ ->
              [ copy_cells tile (fun k -> Stmt.Store (tile, k, Texpr.load b (at k)));
                region;
                copy_cells tile (fun k -> Stmt.Store (b, at k, Texpr.load tile k)) ]
          in
          Some
            ( nest cols (Stmt.Alloc (tile, Stmt.seq (copies region))),
              tile, lanes, pairing, shape,
              Option.map (fun c -> Stmt.seq (copies c)) compact,
              stored )
        | _ -> None)
      | _ -> None))

let promote (func : Lower.func) =
  let bound = List.map snd func.Lower.fn_tensors in
  let stored = Hashtbl.create 8 in
  Stmt.iter_stmts
    (function Stmt.Store (b, _, _) -> Hashtbl.replace stored b.Buffer.id () | _ -> ())
    func.Lower.fn_body;
  let is_bound (b : Buffer.t) = List.exists (Buffer.equal b) bound in
  let weights (w : Buffer.t) = is_bound w && not (Hashtbl.mem stored w.Buffer.id) in
  (* one compact pairs buffer per weights and distance *)
  let all_pairs = Hashtbl.create 4 in
  let pairs (w : Buffer.t) d dtype =
    match Hashtbl.find_opt all_pairs (w.Buffer.id, d) with
    | Some p -> p
    | None ->
      let p = Buffer.create ~name:(w.Buffer.name ^ ".pairs") ~dtype ~size:(w.Buffer.size / 2) () in
      Hashtbl.replace all_pairs (w.Buffer.id, d) p;
      p
  in
  let registers = Hashtbl.create 4 and lanes = Hashtbl.create 4 in
  let unrolled = Hashtbl.create 4 and strided = Hashtbl.create 4 in
  let compacts = Hashtbl.create 4 and stored_outs = Hashtbl.create 4 in
  let diags = ref [] in
  let n = ref 0 in
  (* the top-level statements; [zeroed]: bound buffer id -> the index of
     the one that zero-fills it *)
  let tops = match func.Lower.fn_body with Stmt.Seq l -> l | s -> [ s ] in
  let zeroed = Hashtbl.create 4 in
  List.iteri
    (fun i s ->
      List.iter
        (fun (b : Buffer.t) ->
          if (not (Hashtbl.mem zeroed b.Buffer.id)) && zero_fill b s then
            Hashtbl.replace zeroed b.Buffer.id i)
        bound)
    tops;
  let stores (b : Buffer.t) s =
    Stmt.fold_stmts
      (fun k s -> match s with Stmt.Store (b', _, _) when Buffer.equal b b' -> k + 1 | _ -> k)
      0 s
  in
  let loads (b : Buffer.t) s =
    Stmt.fold_stmts
      (fun k s ->
        List.fold_left
          (fun k e ->
            k + List.length (List.filter (fun (b', _) -> Buffer.equal b b') (Texpr.loads_of e)))
          k (own_exprs s))
      0 s
  in
  (* buffers whose tiles cover them: their init nests go *)
  let covered = Hashtbl.create 4 in
  (* [trips]: how often [s] runs per kernel run; [outer]: the loops
     around it, innermost first; [top]: the top-level statement it is in *)
  let rec go ~top ~outer ~guarded scope trips (s : Stmt.t) =
    let go_in = go ~top ~outer ~guarded in
    match s with
    | Stmt.For ({ var; extent; kind; body } as r) -> (
      let fresh (b : Buffer.t) =
        match Hashtbl.find_opt zeroed b.Buffer.id with
        | Some i ->
          i < top
          && stores b func.Lower.fn_body = 1 + stores b s
          && List.fold_left ( + ) 0
               (List.filteri (fun j _ -> i < j && j <= top) (List.map (loads b) tops))
             = loads b s
        | None -> false
      in
      let register =
        match kind with
        | Stmt.Parallel -> None
        | _ ->
          List.find_map
            (fun b ->
              Option.map
                (fun r -> (b, r))
                (register_tile ~scope ~outer:(List.rev outer) ~guarded ~fresh ~trips
                   ~name:func.Lower.fn_name ~bound:is_bound ~weights ~pairs s b))
            bound
      in
      match register with
      | Some (b, (s, tile, lane_vars, pairing, shape, compact, stored)) ->
        incr n;
        Hashtbl.replace registers tile.Buffer.id
          (match pairing with Ok p -> p | Error _ -> None);
        (match pairing with Error d -> diags := d :: !diags | Ok _ -> ());
        Option.iter (Hashtbl.replace compacts tile.Buffer.id) compact;
        if stored then begin
          Hashtbl.replace stored_outs tile.Buffer.id ();
          Hashtbl.replace covered b.Buffer.id ()
        end;
        List.iter (fun (v : Var.t) -> Hashtbl.replace lanes v.Var.id tile) lane_vars;
        List.iter (fun (v : Var.t) -> Hashtbl.replace unrolled v.Var.id ()) shape.mk_unrolled;
        Option.iter (fun (v : Var.t) -> Hashtbl.replace strided v.Var.id ()) shape.mk_strided;
        s
      | None ->
        let tiles, body =
          match kind with
          | Stmt.Parallel -> ([], body)
          | _ ->
            List.fold_left
              (fun (tiles, body) b ->
                match promote_buffer ~scope var extent body b with
                | Some (tile, base, body, _) -> ((b, tile, base) :: tiles, body)
                | None -> (tiles, body))
              ([], body) bound
        in
        let body =
          go ~top ~outer:((var, extent) :: outer) ~guarded (var.Var.id :: scope) (trips * extent)
            body
        in
        let loop = Stmt.For { r with body } in
        List.fold_left
          (fun loop (b, tile, base) ->
            incr n;
            Stmt.Alloc
              ( tile,
                Stmt.seq
                  [ copy_cells tile (fun k -> Stmt.Store (tile, k, Texpr.load b (Texpr.add base k)));
                    loop;
                    copy_cells tile (fun k -> Stmt.Store (b, Texpr.add base k, Texpr.load tile k))
                  ] ))
          loop tiles)
    | Stmt.Let (v, e, body) -> Stmt.Let (v, e, go_in (v.Var.id :: scope) trips body)
    | Stmt.If _ -> Stmt.map_children (go ~top ~outer ~guarded:true scope trips) s
    | _ -> Stmt.map_children (go_in scope trips) s
  in
  let tops = List.mapi (fun top s -> go ~top ~outer:[] ~guarded:false [] 1 s) tops in
  (* an init nest whose buffer the tiles cover stores nothing they keep,
     and nothing reads it before they do *)
  let init i =
    List.exists
      (fun (b : Buffer.t) ->
        Hashtbl.mem covered b.Buffer.id && Hashtbl.find_opt zeroed b.Buffer.id = Some i)
      bound
  in
  let body =
    match func.Lower.fn_body with
    | Stmt.Seq _ -> Stmt.Seq (List.filteri (fun i _ -> not (init i)) tops)
    | _ -> List.hd tops
  in
  { tl_func = { func with Lower.fn_body = body };
    tl_tiles = !n;
    tl_registers = registers;
    tl_compact = compacts;
    tl_stored = stored_outs;
    tl_lanes = lanes;
    tl_unrolled = unrolled;
    tl_strided = strided;
    tl_diags = List.rev !diags }

let promote_tiles func =
  let t = promote func in
  (t.tl_func, t.tl_tiles)

(* ---- index terms *)

(* [coeff * atom] in a sum: [atom] is a variable or a non-affine
   subterm, [level] the loop level from which on its value is known
   (see [hoist_terms]). *)
type term = { t_atom : Texpr.t; t_level : int; t_coeff : int }

(* A variable in scope, as [hoist_terms] sees it. *)
type binding =
  | Level of int  (* known from the top of that loop level's body on *)
  | Copy  (* an unrolled loop's index: a literal in each copy *)
  | Inlined of Texpr.t  (* an exact [Let]: its value's closed form *)

(* What an offset-carrying partial adds its value to: the buffer's
   offset [o<k>] or the partial of an outer level. *)
type base = Offset | After of Var.t

type hoisting = {
  ht_body : Stmt.t;
  ht_carries : (int, Buffer.t * base * (int * int)) Hashtbl.t;
      (* partial var id -> the bound buffer whose offset it carries, and
         the interval proven for its value without that offset *)
  ht_partials : (int, unit) Hashtbl.t;  (* every partial's var id *)
  ht_hoisted : int;  (* partials bound and extent-1 loops folded *)
}

exception Unhoistable

(* Index terms hoisted out of the loops that do not change them (the
   header's "Loop shaping"): a loop's index has its loop's level, a
   [Let]'s variable the level below its binding, an unrolled copy's
   index none.  [offset b]: [b]'s indices take its offset into their
   outermost partial. *)
let hoist_terms ~is_lane ~offset (body : Stmt.t) =
  let allocs = Hashtbl.create 8 in
  Stmt.iter_stmts
    (function Stmt.Alloc (b, _) -> Hashtbl.replace allocs b.Buffer.id () | _ -> ())
    body;
  let load (b : Buffer.t) =
    load_range ~raw:(Hashtbl.mem allocs b.Buffer.id && deferrable b.Buffer.dtype) b
  in
  let env : (int, binding) Hashtbl.t = Hashtbl.create 16 in
  let ivs : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let interval = Linear.bounds ~load ~env:(fun (v : Var.t) -> Hashtbl.find_opt ivs v.Var.id) in
  let scoped (v : Var.t) b iv f =
    let id = v.Var.id in
    let had_b = Hashtbl.find_opt env id and had_iv = Hashtbl.find_opt ivs id in
    let set tbl = function
      | Some x -> Hashtbl.replace tbl id x
      | None -> Hashtbl.remove tbl id
    in
    Hashtbl.replace env id b;
    set ivs iv;
    let r = f () in
    set env had_b;
    set ivs had_iv;
    r
  in
  (* [e] with the inlined [Let]s it reads replaced by their values *)
  let close (e : Texpr.t) =
    Texpr.substitute
      (List.filter_map
         (fun (v : Var.t) ->
           match Hashtbl.find_opt env v.Var.id with
           | Some (Inlined x) -> Some (v, x)
           | _ -> None)
         (Texpr.vars_of e))
      e
  in
  (* ---- normal forms: [linear_form] of the closed value, each atom
     tagged with the deepest level it reads *)
  let level (a : Texpr.t) =
    List.fold_left
      (fun l (v : Var.t) ->
        match Hashtbl.find_opt env v.Var.id with
        | Some (Level k) -> Stdlib.max l k
        | Some Copy -> max_int
        | Some (Inlined _) | None -> raise Unhoistable)
      0 (Texpr.vars_of a)
  in
  let norm (e : Texpr.t) =
    match linear_form (close e) with
    | None -> raise Unhoistable
    | Some (ts, c) ->
      (List.map (fun (a, k) -> { t_atom = a; t_level = level a; t_coeff = k }) ts, c)
  in
  let exact (e : Texpr.t) =
    Dtype.equal (Texpr.dtype_of e) Dtype.I32 && Texpr.loads_of e = [] && interval e <> None
  in
  (* ---- partials: [frames] holds, innermost first, each open loop's
     partials as (carried buffer, terms, var, value) in binding order *)
  let frames : (Buffer.t option * term list * Var.t * Texpr.t) list ref list ref = ref [] in
  let depth () = List.length !frames in
  let carries = Hashtbl.create 8 and partials = Hashtbl.create 8 in
  let n_terms = ref 0 in
  let product (t : term) =
    if t.t_coeff = 1 then t.t_atom else Texpr.mul (Texpr.int_imm t.t_coeff) t.t_atom
  in
  let total = function
    | [] -> Texpr.int_imm 0
    | t :: ts -> List.fold_left (fun acc t -> Texpr.add acc (product t)) (product t) ts
  in
  let same_terms ts us =
    List.length ts = List.length us
    && List.for_all
         (fun (t : term) ->
           List.exists
             (fun (u : term) ->
               u.t_coeff = t.t_coeff && Texpr.equal_structural u.t_atom t.t_atom)
             us)
         ts
  in
  (* [e] as [partial + rest], or [None] *)
  let rewrite ~carry (e : Texpr.t) =
    let d = depth () in
    match if d > 0 && exact e then Some (norm e) else None with
    | None | (exception Unhoistable) -> None
    | Some (ts, c) -> (
      let hoisted, rest = List.partition (fun t -> t.t_level <= d) ts in
      (* level-0 terms join the first loop level's partial *)
      let level (t : term) = Stdlib.max 1 t.t_level in
      let levels = List.sort_uniq compare (List.map level hoisted) in
      let pending = ref [] in
      let step (prev, sofar) k =
        let mine = List.filter (fun t -> level t = k) hoisted in
        let sofar = sofar @ mine in
        let frame = List.nth !frames (d - k) in
        match
          List.find_opt
            (fun (b, ts, _, _) -> Option.equal Buffer.equal b carry && same_terms ts sofar)
            !frame
        with
        | Some (_, _, p, _) -> (Some p, sofar)
        | None ->
          let delta = total mine in
          let full = match prev with None -> delta | Some p -> Texpr.add (Texpr.var p) delta in
          (* every node of [full], [delta] among them, fits *)
          let iv = match interval full with Some iv -> iv | None -> raise Unhoistable in
          let p = Var.create "p" in
          Hashtbl.replace ivs p.Var.id iv;
          let value, base =
            match carry, prev with
            | Some b, None -> (delta, Some (b, Offset, iv))
            | Some b, Some q -> (delta, Some (b, After q, iv))
            | None, _ -> (full, None)
          in
          pending := (frame, (carry, sofar, p, value), base) :: !pending;
          (Some p, sofar)
      in
      match List.fold_left step (None, []) levels with
      | exception Unhoistable -> None
      | None, _ -> None
      | Some p, _ ->
        let r = Texpr.add (Texpr.var p) (Texpr.add (total rest) (Texpr.int_imm c)) in
        if interval r = None then None
        else begin
          List.iter
            (fun (frame, (b, ts, p, v), base) ->
              incr n_terms;
              Hashtbl.replace partials p.Var.id ();
              frame := !frame @ [ (b, ts, p, v) ];
              Option.iter (Hashtbl.replace carries p.Var.id) base)
            (List.rev !pending);
          Some r
        end)
  in
  (* maximal exact terms of [e], and the indices of its loads *)
  let rec ex (e : Texpr.t) =
    let candidate =
      match e with
      | Texpr.Binop _ -> true
      | Texpr.Var v -> (
        match Hashtbl.find_opt env v.Var.id with Some (Inlined _) -> true | _ -> false)
      | _ -> false
    in
    match if candidate then rewrite ~carry:None e else None with
    | Some r -> r
    | None -> sub e
  and sub (e : Texpr.t) =
    match e with
    | Texpr.Load (b, ix) -> Texpr.load b (index b ix)
    | _ -> Texpr.map_children ex e
  and index b ix =
    match rewrite ~carry:(if offset b then Some b else None) ix with
    | Some r -> r
    | None -> ex ix
  in
  let rec st (s : Stmt.t) =
    match s with
    | Stmt.For ({ var; extent; body; _ } as r) when unrollable ~is_lane s ->
      scoped var Copy (Linear.fit var.Var.dtype (0, extent - 1)) (fun () ->
          Stmt.For { r with body = st body })
    | Stmt.For { var; extent = 1; kind; body }
      when (match kind with Stmt.Parallel -> false | _ -> true) ->
      incr n_terms;
      st (Stmt.Let (var, Texpr.int_imm ~dtype:var.Var.dtype 0, body))
    | Stmt.For ({ var; extent; body; _ } as r) ->
      let frame = ref [] in
      frames := frame :: !frames;
      let body =
        scoped var (Level (depth ())) (Linear.fit var.Var.dtype (0, extent - 1)) (fun () ->
            st body)
      in
      frames := List.tl !frames;
      let body =
        List.fold_right (fun (_, _, p, v) body -> Stmt.Let (p, v, body)) !frame body
      in
      Stmt.For { r with body }
    | Stmt.Let (v, e, body) ->
      let iv = Option.bind (interval e) (Linear.fit v.Var.dtype) in
      let inlined =
        if Dtype.equal v.Var.dtype Dtype.I32 && exact e then
          match norm e with
          | exception Unhoistable -> None
          | _ ->
            (* inlining must not capture: neither the [Let] nor
               anything in [body] rebinds a variable the value reads *)
            let closed = close e and bound = v.Var.id :: binders body in
            if List.exists (fun (u : Var.t) -> List.mem u.Var.id bound) (Texpr.vars_of closed)
            then None
            else Some (Inlined closed)
        else None
      in
      let b = match inlined with Some b -> b | None -> Level (depth () + 1) in
      let body = scoped v b iv (fun () -> st body) in
      if inlined <> None && not (reads v body) then body else Stmt.Let (v, ex e, body)
    | Stmt.Store (b, ix, v) ->
      let v = ex v in
      Stmt.Store (b, index b ix, v)
    | Stmt.If ({ cond; then_; else_; _ } as r) ->
      let cond = ex cond in
      Stmt.If { r with cond; then_ = st then_; else_ = Option.map st else_ }
    | Stmt.Alloc (b, body) -> Stmt.Alloc (b, st body)
    | Stmt.Seq l -> Stmt.Seq (List.map st l)
    | Stmt.Nop | Stmt.Intrin_call _ -> s
  in
  let body = st body in
  { ht_body = body; ht_carries = carries; ht_partials = partials; ht_hoisted = !n_terms }

(* Canonicalizer names from {!Unit_emit_hook}, which the kernel opens. *)
let wname dt = (Ndarray.canon dt).wrap_name
let satname dt = (Ndarray.canon dt).sat_name

(* Round-to-precision: the identity for f64, a trip through Int32 bits
   for f32, and for bf16 that trip with the low 16 bits rounded to
   nearest even.  Both are written out: a call into the hook would not
   inline, and both round after every op.  A NaN, or an f32 that lands
   on a bf16 tie, takes the hook's [r_bf16], which breaks the tie with
   the bits the f32 step dropped. *)
let rounded dt s =
  match dt with
  | Dtype.F64 -> s
  | Dtype.F32 -> Printf.sprintf "(Int32.float_of_bits (Int32.bits_of_float %s))" s
  | Dtype.Bf16 ->
    Printf.sprintf
      "(let x_ = %s in let b_ = Int32.bits_of_float x_ in if x_ = x_ && Int32.logand b_ \
       0xffffl <> 0x8000l then Int32.float_of_bits (Int32.logand (Int32.add b_ (Int32.add \
       0x7fffl (Int32.logand (Int32.shift_right_logical b_ 16) 1l))) 0xffff0000l) else \
       r_bf16 x_)"
      s
  | _ -> unsupported "round to %s" (Dtype.to_string dt)

(* The OCaml type of a storage class's elements. *)
let carrier_type : Ndarray.storage_class -> string = function
  | Float_class -> "float"
  | Int_class -> "int"
  | Int64_class -> "int64"

let int_lit c = if c < 0 then Printf.sprintf "(%d)" c else string_of_int c

let int64_lit x =
  if Int64.equal x Int64.min_int then "Int64.min_int"
  else Printf.sprintf "(%LdL)" x

let float_lit f =
  if Float.is_nan f then "Float.nan"
  else if f = Float.infinity then "Float.infinity"
  else if f = Float.neg_infinity then "Float.neg_infinity"
  else Printf.sprintf "(%h)" f

let value_lit = function
  | Value.Int (dt, x) when Ndarray.is_narrow dt -> int_lit (Int64.to_int x)
  | Value.Int (_, x) -> int64_lit x
  | Value.Float (Dtype.F16, _) -> unsupported "f16 immediate"
  | Value.Float (_, f) -> float_lit f

let render (func : Lower.func) : plan * string =
  let func =
    try Unit_isa.Semantics.expand func
    with Unit_isa.Semantics.Execution_error msg -> unsupported "%s" msg
  in
  let tiling = promote func in
  let func = tiling.tl_func in
  let bound = List.map snd func.Lower.fn_tensors in
  (* each packed tile reads its compact pairs *)
  let rec compacted (s : Stmt.t) =
    match s with
    | Stmt.Alloc (t, _) when Hashtbl.mem tiling.tl_compact t.Buffer.id ->
      Stmt.Alloc (t, Hashtbl.find tiling.tl_compact t.Buffer.id)
    | _ -> Stmt.map_children compacted s
  in
  (* the compact pairs, one array per weights and distance, in no
     particular order *)
  let packs =
    Hashtbl.fold
      (fun _ p acc ->
        match p with
        | Some p when not (List.exists (fun q -> Buffer.equal q.pr_pairs p.pr_pairs) acc) ->
          p :: acc
        | _ -> acc)
      tiling.tl_registers []
  in
  let is_lane (v : Var.t) =
    Hashtbl.mem tiling.tl_lanes v.Var.id || Hashtbl.mem tiling.tl_unrolled v.Var.id
  in
  let hoisting =
    hoist_terms ~is_lane
      ~offset:(fun b -> List.exists (Buffer.equal b) bound)
      (compacted func.Lower.fn_body)
  in
  (* ---- binding plan: one cell per buffer, grouped by storage class *)
  let layout = Binding.layout func in
  (* Buffers in scope: id -> [true] when addressed through a per-tensor
     offset (bound entries), [false] for Alloc scratch (always based at 0). *)
  let defined : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Binding.slot) ->
      let b = s.sl_buf in
      if Hashtbl.mem defined b.Buffer.id then
        unsupported "buffer %s bound through two tensors" b.Buffer.name;
      ignore (carrier_of b.Buffer.dtype : Ndarray.storage_class) (* refuses f16 *);
      Hashtbl.replace defined b.Buffer.id true)
    layout.l_slots;
  (* compact pairs live in their own array, based at 0, and hold raw
     lane-pair sums *)
  List.iter (fun p -> Hashtbl.replace defined p.pr_pairs.Buffer.id false) packs;
  (* Alloc scratch rendered as a local [ref] (see [is_scalar_cell]). *)
  let cells : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let is_cell (b : Buffer.t) = Hashtbl.mem cells b.Buffer.id in
  (* Alloc scratch of a deferrable dtype holds raw values *)
  let raw_scratch (b : Buffer.t) =
    Hashtbl.find_opt defined b.Buffer.id = Some false && deferrable b.Buffer.dtype
  in
  let bound_vars : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Indices of unrolled loops: var id -> the literal of this copy. *)
  let lits : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* Rule tallies, published as counters once the whole body rendered;
     [counting] is off while hoisting candidates are rendered, so each
     node counts once. *)
  let n_deferred = ref 0 and n_unrolled = ref 0 and n_hoisted = ref 0 in
  let n_cells = ref 0 and n_pairs = ref 0 and n_stored = ref 0 in
  let n_unchecked = ref 0 and n_checked = ref 0 in
  let counting = ref true in
  let bump r = if !counting then incr r in
  (* a raw add/sub/mul consumed raw: one wrap the old rendering paid *)
  let defers (e : Texpr.t) raw =
    match e with Texpr.Binop _ when raw -> bump n_deferred | _ -> ()
  in
  (* ---- intervals from {!Linear.bounds}: a node whose proven value
     range fits its dtype needs no canonicalizing wrap (the wrap is the
     identity), so typical loop-nest address arithmetic renders as bare
     native [+]/[*] instead of a [w_i32] call per node.  Proven ranges
     stay within 2^30, so eliding can never change a value.  Raw values
     have no interval: a raw add/sub/mul already has none, and a
     scalar-cell load gets none from [load]. *)
  let ienv : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let bounds env = Linear.bounds ~env ~load:(fun b -> load_range ~raw:(raw_scratch b) b) in
  let interval = bounds (fun (v : Var.t) -> Hashtbl.find_opt ienv v.Var.id) in
  (* An index's interval without its buffer's offset: a partial that
     carries the offset counts at the interval [hoist_terms] proved for
     it without the offset. *)
  let index_interval =
    bounds (fun (v : Var.t) ->
        match Hashtbl.find_opt hoisting.ht_carries v.Var.id with
        | Some (_, _, iv) -> Some iv
        | None -> Hashtbl.find_opt ienv v.Var.id)
  in
  (* Rendered names must not leak the process-global [Var.id] /
     [Buffer.id] counters: the same logical kernel lowered in two
     processes (fresh tune vs store replay) must produce byte-identical
     source, because the artifact cache content-addresses it.  Both id
     spaces are renamed to first-seen sequential indices — deterministic
     given the IR structure alone. *)
  let first_seen () =
    let ids : (int, int) Hashtbl.t = Hashtbl.create 16 in
    fun id ->
      match Hashtbl.find_opt ids id with
      | Some n -> n
      | None ->
        let n = Hashtbl.length ids in
        Hashtbl.add ids id n;
        n
  in
  let norm_var = first_seen () and norm_buf = first_seen () in
  List.iter (fun (s : Binding.slot) -> ignore (norm_buf s.sl_buf.Buffer.id : int)) layout.l_slots;
  (* While a microkernel renders, the names its source reads, in
     first-use order: those bound outside it become its parameters. *)
  let uses : (string, unit) Hashtbl.t option ref = ref None and use_order = ref [] in
  let use n =
    (match !uses with
     | Some t when not (Hashtbl.mem t n) ->
       Hashtbl.add t n ();
       use_order := n :: !use_order
     | _ -> ());
    n
  in
  let vname (v : Var.t) = use (Printf.sprintf "v%d" (norm_var v.Var.id)) in
  let cellname (b : Buffer.t) = use (Printf.sprintf "c%d" (norm_buf b.Buffer.id)) in
  let offname (b : Buffer.t) = use (Printf.sprintf "o%d" (norm_buf b.Buffer.id)) in
  (* ---- register tiles: each cell (each lane pair, when packed) is a
     local [ref] named after the tile and the cell *)
  let pairing_of (b : Buffer.t) = Hashtbl.find_opt tiling.tl_registers b.Buffer.id in
  let regname (b : Buffer.t) i = Printf.sprintf "%s_%d" (cellname b) i in
  (* The id of the packed tile whose lane loop's even copies render. *)
  let packing = ref None in
  (* Partials that carry a bound buffer's offset (see [hoist_terms]):
     they have no interval, and render only as the head of that
     buffer's index. *)
  let carried (b : Buffer.t) (v : Var.t) =
    match Hashtbl.find_opt hoisting.ht_carries v.Var.id with
    | Some (b', _, _) -> Buffer.equal b b'
    | None -> false
  in
  (* A register tile's cells render at literal offsets: its lane loops
     unroll.  A packed tile's cell [i] is the low ([i] even) or high lane
     of pair [i/2], split inline; inside the lane copies only even cells
     occur, and the pair accumulates as a whole. *)
  let reg_offset (b : Buffer.t) ix =
    match interval ix with
    | Some (i, j) when i = j && i >= 0 && i < b.Buffer.size -> i
    | _ -> unsupported "register tile %s indexed off a literal" b.Buffer.name
  in
  let in_lanes (b : Buffer.t) i = !packing = Some b.Buffer.id && i mod 2 = 0 in
  let reg_load (b : Buffer.t) p ix =
    let i = reg_offset b ix in
    match p with
    | None -> "!" ^ regname b i
    | Some _ when in_lanes b i -> "!" ^ regname b (i / 2)
    | Some _ when i mod 2 = 0 -> Printf.sprintf "((!%s lsl 32) asr 32)" (regname b (i / 2))
    | Some _ -> Printf.sprintf "((!%s + 0x40000000) asr 31)" (regname b (i / 2))
  in
  (* A packed tile's lane, split from its pair outside the lane loop, is
     its exact sum, inside [[-2^30, 2^30)]: canonical for i32. *)
  let lane_value (b : Buffer.t) =
    Option.join (pairing_of b) <> None
    && !packing <> Some b.Buffer.id
    && Dtype.equal b.Buffer.dtype Dtype.I32
  in
  let reg_store (b : Buffer.t) p ix =
    let i = reg_offset b ix in
    match p with
    | None -> regname b i
    | Some _ when in_lanes b i -> regname b (i / 2)
    | Some _ -> unsupported "packed tile %s stored outside its lanes" b.Buffer.name
  in
  (* Loads bound before the loop being rendered: rendered load -> name. *)
  let hoisted : (string, string) Hashtbl.t = Hashtbl.create 8 in
  (* Microkernels rendered so far: (name, parameters with their types
     where known, source) *)
  let microkernels = ref [] in
  (* [Some (start, stride)] when the partial [p = e] of the loop [v] is
     [start + stride * v] (see [hoist_terms]'s partials) *)
  let step_of (v : Var.t) (p : Var.t) (e : Texpr.t) =
    let stride (d : Texpr.t) =
      match Linear.coefficient_of d v with
      | Some c
        when c <> 0
             && List.for_all (Var.equal v) (Texpr.vars_of d)
             && Linear.bounds ~env:(fun _ -> Some (0, 0)) d = Some (0, 0) ->
        Some c
      | _ -> None
    in
    match Hashtbl.find_opt hoisting.ht_carries p.Var.id, e with
    | Some (b, Offset, _), _ -> Option.map (fun c -> (offname b, c)) (stride e)
    | Some (_, After q, _), _ -> Option.map (fun c -> (vname q, c)) (stride e)
    | None, Texpr.Binop (Texpr.Add, Texpr.Var q, d) -> Option.map (fun c -> (vname q, c)) (stride d)
    | None, _ -> Option.map (fun c -> ("0", c)) (stride e)
  in
  (* ---- expressions; [re] yields the value in its dtype's carrier,
     canonical; [rv] may leave a deferrable add/sub/mul or scalar-cell
     load raw and says so.  [rv] and [rcanon] render each node their own
     way, so they match on it rather than use [Texpr.map_children]. *)
  let rec re (e : Texpr.t) : string =
    match rv e with
    | s, true -> Printf.sprintf "(%s %s)" (wname (Texpr.dtype_of e)) s
    | s, false -> s

  and rv (e : Texpr.t) : string * bool =
    match e with
    | Texpr.Load (b, ix) when raw_scratch b -> (rload b ix, not (lane_value b))
    | Texpr.Binop (((Texpr.Add | Texpr.Sub | Texpr.Mul) as op), a, b)
      when deferrable (Texpr.dtype_of e) && interval e = None ->
      let operand x =
        let s, raw = rv x in
        defers x raw;
        s
      in
      let sa = operand a in
      let sb = operand b in
      let sym = match op with Texpr.Add -> "+" | Texpr.Sub -> "-" | _ -> "*" in
      (Printf.sprintf "(%s %s %s)" sa sym sb, true)
    | _ -> (rcanon e, false)

  (* [access arr at] for the access [b.(ix)]: [arr] the array holding
     [b], [at] the rendered cell.  A proven index renders bare, behind
     the kernel's entry check; any other is checked against [b]'s
     window where it runs (see the header's "Bounds"). *)
  and addr_in (b : Buffer.t) (ix : Texpr.t) access =
    let k = norm_buf b.Buffer.id in
    let o () = offname b and zero () = "0" in
    (* the array, where [b]'s window starts in it, and the cell *)
    let arr, lo, at =
      match Hashtbl.find_opt defined b.Buffer.id, ix with
      | None, _ -> unsupported "buffer %s unbound" b.Buffer.name
      | Some true, Texpr.Var p when carried b p -> (cellname b, o, vname p)
      | Some true, Texpr.Binop (Texpr.Add, Texpr.Var p, r) when carried b p ->
        (cellname b, o, Printf.sprintf "(%s + %s)" (vname p) (rint r))
      | Some true, _ -> (cellname b, o, Printf.sprintf "(%s + %s)" (o ()) (rint ix))
      | Some false, _ -> (cellname b, zero, rint ix)
    in
    let size = b.Buffer.size in
    if Linear.in_bounds ~size (index_interval ix) then begin
      bump n_unchecked;
      access arr at
    end
    else begin
      bump n_checked;
      let lo = lo () in
      Printf.sprintf
        "(let a_ = %s in if a_ < %s || a_ >= %s + %d then out_of_window %d (a_ - %s) %d; %s)"
        at lo lo size k lo size (access arr "a_")
    end

  and rload (b : Buffer.t) ix =
    match pairing_of b with
    | Some p -> reg_load b p ix
    | None ->
      let s =
        if is_cell b then "!" ^ cellname b
        else addr_in b ix (Printf.sprintf "(Array.unsafe_get %s %s)")
      in
      (match Hashtbl.find_opt hoisted s with Some h -> use h | None -> s)

  and rcanon (e : Texpr.t) : string =
    match e with
    | Texpr.Imm v -> value_lit v
    | Texpr.Var v ->
      if not (Hashtbl.mem bound_vars v.Var.id) then
        unsupported "variable %s read out of scope" v.Var.name;
      if Hashtbl.mem hoisting.ht_carries v.Var.id then
        unsupported "offset partial %s read outside an index" v.Var.name;
      let dt = v.Var.dtype in
      (match carrier_of dt, Hashtbl.find_opt lits v.Var.id with
       | Int_class, Some i -> int_lit i
       | Int64_class, Some i -> int64_lit (Int64.of_int i)
       | Int_class, None ->
         (* a proven range fits the dtype: the wrap is the identity *)
         if Hashtbl.mem ienv v.Var.id then vname v
         else Printf.sprintf "(%s %s)" (wname dt) (vname v)
       | Int64_class, None -> Printf.sprintf "(Int64.of_int %s)" (vname v)
       | Float_class, _ -> unsupported "float-dtyped variable %s" v.Var.name)
    | Texpr.Load (b, ix) -> rload b ix
    | Texpr.Binop (op, a, b) -> (
      (* a proven constant renders as its literal *)
      match interval e with
      | Some (c, c')
        when c = c' && carrier_of (Texpr.dtype_of e) = Ndarray.Int_class && Texpr.loads_of e = [] ->
        int_lit c
      | _ -> rbinop e (Texpr.dtype_of e) op a b)
    | Texpr.Cmp (c, a, b) -> Printf.sprintf "(if %s then 1 else 0)" (rcmp c a b)
    | Texpr.And (a, b) ->
      Printf.sprintf "(if %s && %s then 1 else 0)" (rtruth a) (rtruth b)
    | Texpr.Or (a, b) ->
      Printf.sprintf "(if %s || %s then 1 else 0)" (rtruth a) (rtruth b)
    | Texpr.Not a -> Printf.sprintf "(if %s then 0 else 1)" (rtruth a)
    | Texpr.Cast (dt, a) ->
      (* a proven-fitting operand makes the narrowing cast the identity *)
      (match carrier_of (Texpr.dtype_of a), carrier_of dt with
       | Int_class, Int_class
         when Option.bind (interval a) (Linear.fit dt) <> None ->
         re a
       | _ -> rcast dt (Texpr.dtype_of a) (re a))
    | Texpr.Select (c, a, b) ->
      let da = Texpr.dtype_of a and db = Texpr.dtype_of b in
      if not (Dtype.equal da db) then
        unsupported "select branches of dtype %s vs %s" (Dtype.to_string da)
          (Dtype.to_string db);
      Printf.sprintf "(if %s then %s else %s)" (rtruth c) (re a) (re b)

  (* native-int view of an integer-context expression; mirrors
     Compile.eval_int_c's carrier coercions *)
  and rint e =
    match carrier_of (Texpr.dtype_of e) with
    | Int_class -> re e
    | Float_class -> Printf.sprintf "(trunc %s)" (re e)
    | Int64_class -> Printf.sprintf "(Int64.to_int %s)" (re e)

  and rtruth e =
    match e with
    | Texpr.Cmp (c, a, b) -> rcmp c a b
    | _ ->
      (match carrier_of (Texpr.dtype_of e) with
       | Int_class -> Printf.sprintf "(%s <> 0)" (re e)
       | Float_class -> Printf.sprintf "(trunc %s <> 0)" (re e)
       | Int64_class -> Printf.sprintf "(not (Int64.equal %s 0L))" (re e))

  and rcmp c a b =
    let op = match c with Texpr.Lt -> "<" | Texpr.Le -> "<=" | Texpr.Eq -> "=" | Texpr.Ne -> "<>" in
    match carrier_of (Texpr.dtype_of a), carrier_of (Texpr.dtype_of b) with
    | Int_class, Int_class -> Printf.sprintf "(%s %s %s)" (re a) op (re b)
    | Int64_class, Int64_class -> Printf.sprintf "(Int64.compare %s %s %s 0)" (re a) (re b) op
    | (Int_class | Float_class), (Int_class | Float_class) ->
      let as_f e = match carrier_of (Texpr.dtype_of e) with
        | Float_class -> re e
        | _ -> Printf.sprintf "(float_of_int %s)" (re e)
      in
      Printf.sprintf "(Float.compare %s %s %s 0)" (as_f a) (as_f b) op
    | _ ->
      (* mixed int64/other: Value.compare_num over to_float / payloads *)
      let as64 e = match carrier_of (Texpr.dtype_of e) with
        | Int64_class -> re e
        | Int_class -> Printf.sprintf "(Int64.of_int %s)" (re e)
        | Float_class -> Printf.sprintf "(trunc64 %s)" (re e)
      in
      (match carrier_of (Texpr.dtype_of a), carrier_of (Texpr.dtype_of b) with
       | Float_class, _ | _, Float_class ->
         let as_f e = match carrier_of (Texpr.dtype_of e) with
           | Float_class -> re e
           | Int_class -> Printf.sprintf "(float_of_int %s)" (re e)
           | Int64_class -> Printf.sprintf "(Int64.to_float %s)" (re e)
         in
         Printf.sprintf "(Float.compare %s %s %s 0)" (as_f a) (as_f b) op
       | _ -> Printf.sprintf "(Int64.compare %s %s %s 0)" (as64 a) (as64 b) op)

  and rbinop e dt op a b =
    let sa = re a and sb = re b in
    match carrier_of dt with
    | Int_class ->
      let w = wname dt in
      (* a proven interval means the result fits [dt], so the
         canonicalizing wrap is the identity and is dropped — exactly
         Compile's elision rule *)
      let exact = interval e <> None in
      (match op with
       | Texpr.Add when exact -> Printf.sprintf "(%s + %s)" sa sb
       | Texpr.Sub when exact -> Printf.sprintf "(%s - %s)" sa sb
       | Texpr.Mul when exact -> Printf.sprintf "(%s * %s)" sa sb
       | Texpr.Add -> Printf.sprintf "(%s (%s + %s))" w sa sb
       | Texpr.Sub -> Printf.sprintf "(%s (%s - %s))" w sa sb
       | Texpr.Mul -> Printf.sprintf "(%s (%s * %s))" w sa sb
       | (Texpr.Div | Texpr.Mod)
         when match Texpr.as_const_int b with Some c -> c > 0 | None -> false ->
         (* quotient and remainder of a canonical value by a positive
            literal stay in the dtype's range *)
         Printf.sprintf "(%s %s %s)" sa (if op = Texpr.Div then "/" else "mod") sb
       | Texpr.Div ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if y_ = 0 then 0 else %s (x_ / y_))"
           sa sb w
       | Texpr.Mod ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if y_ = 0 then 0 else %s (x_ mod y_))"
           sa sb w
       | Texpr.Min ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if x_ <= y_ then x_ else y_)" sa sb
       | Texpr.Max ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if x_ >= y_ then x_ else y_)" sa sb)
    | Float_class ->
      (match op with
       | Texpr.Add -> rounded dt (Printf.sprintf "(%s +. %s)" sa sb)
       | Texpr.Sub -> rounded dt (Printf.sprintf "(%s -. %s)" sa sb)
       | Texpr.Mul -> rounded dt (Printf.sprintf "(%s *. %s)" sa sb)
       | Texpr.Div -> rounded dt (Printf.sprintf "(%s /. %s)" sa sb)
       | Texpr.Mod -> rounded dt (Printf.sprintf "(Float.rem %s %s)" sa sb)
       (* min/max of canonical values is canonical; no re-round *)
       | Texpr.Min -> Printf.sprintf "(Float.min %s %s)" sa sb
       | Texpr.Max -> Printf.sprintf "(Float.max %s %s)" sa sb)
    | Int64_class ->
      (match op with
       | Texpr.Add -> Printf.sprintf "(Int64.add %s %s)" sa sb
       | Texpr.Sub -> Printf.sprintf "(Int64.sub %s %s)" sa sb
       | Texpr.Mul -> Printf.sprintf "(Int64.mul %s %s)" sa sb
       | Texpr.Div ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if Int64.equal y_ 0L then 0L else \
            Int64.div x_ y_)"
           sa sb
       | Texpr.Mod ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if Int64.equal y_ 0L then 0L else \
            Int64.rem x_ y_)"
           sa sb
       | Texpr.Min ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if Int64.compare x_ y_ <= 0 then x_ \
            else y_)"
           sa sb
       | Texpr.Max ->
         Printf.sprintf
           "(let x_ = %s in let y_ = %s in if Int64.compare x_ y_ >= 0 then x_ \
            else y_)"
           sa sb)

  (* Value.cast on carriers; [src]/[dst] drive the same dispatch as
     Compile.comp_cast *)
  and rcast dt src s =
    match carrier_of src, carrier_of dt with
    | Int_class, Int_class -> if Dtype.equal dt src then s else Printf.sprintf "(%s %s)" (wname dt) s
    | Int_class, Float_class -> rounded dt (Printf.sprintf "(float_of_int %s)" s)
    | Int_class, Int64_class -> Printf.sprintf "(Int64.of_int %s)" s
    | Float_class, Float_class ->
      if Dtype.equal dt Dtype.F64 || Dtype.equal dt src then s else rounded dt s
    | Float_class, Int_class -> Printf.sprintf "(%s %s)" (satname dt) s
    | Float_class, Int64_class -> Printf.sprintf "(trunc64 %s)" s
    | Int64_class, Int_class -> Printf.sprintf "(%s (Int64.to_int %s))" (wname dt) s
    | Int64_class, Int64_class -> s
    | Int64_class, Float_class -> rounded dt (Printf.sprintf "(Int64.to_float %s)" s)
  in
  (* ---- statements, into the kernel's body or a microkernel's *)
  let out = ref (B.create 4096) in
  let line i s =
    B.add_string !out (String.make (2 * i) ' ');
    B.add_string !out s;
    B.add_char !out '\n'
  in
  let with_var (v : Var.t) ?iv ?lit f =
    let id = v.Var.id in
    let had_bound = Hashtbl.mem bound_vars id in
    let had_iv = Hashtbl.find_opt ienv id in
    let had_lit = Hashtbl.find_opt lits id in
    let restore tbl = function
      | Some x -> Hashtbl.replace tbl id x
      | None -> Hashtbl.remove tbl id
    in
    Hashtbl.replace bound_vars id ();
    restore ienv iv;
    restore lits lit;
    f ();
    if not had_bound then Hashtbl.remove bound_vars id;
    restore ienv had_iv;
    restore lits had_lit
  in
  let unrollable = unrollable ~is_lane and only_unrollable = only_unrollable ~is_lane in
  (* The loads of a loop's [body] (no loop left once unrolled) to bind
     before the loop, as [(name, rendered load)] in binding order; each
     is also entered into [hoisted].  A load qualifies when it runs on
     every iteration (not in an [If] or [Select] branch, nor right of
     [And]/[Or]), its index reads only variables bound outside the loop
     (or literal copies of an unrolled inner loop) and no load in it
     reads a buffer the body stores to or allocates.  Candidates are
     visited index-first, so a hoisted load inside another's index is
     already named when the outer one is rendered. *)
  let hoist_loads (loop_var : Var.t) body =
    let written = Hashtbl.create 8 in
    Stmt.iter_stmts
      (function
        | Stmt.Store (b, _, _) | Stmt.Alloc (b, _) -> Hashtbl.replace written b.Buffer.id ()
        | _ -> ())
      body;
    (* a variable bound both outside and inside the loop would make two
       different values render alike; otherwise a variable bound now is
       bound outside the loop or is an unrolled copy's literal *)
    if List.exists (Hashtbl.mem bound_vars) (loop_var.Var.id :: binders body) then []
    else begin
      let invariant (b : Buffer.t) = not (Hashtbl.mem written b.Buffer.id) in
      let qualifies b ix =
        invariant b
        && List.for_all (fun (b', _) -> invariant b') (Texpr.loads_of ix)
        && List.for_all (fun (v : Var.t) -> Hashtbl.mem bound_vars v.Var.id) (Texpr.vars_of ix)
      in
      let binds = ref [] in
      (* matched node by node: [every] turns false right of [And]/[Or]
         and in [Select] branches *)
      let rec ex every (e : Texpr.t) =
        match e with
        | Texpr.Imm _ | Texpr.Var _ -> ()
        | Texpr.Load (b, ix) ->
          ex every ix;
          if every && qualifies b ix then begin
            let s = rload b ix in
            if not (Hashtbl.mem hoisted s) then begin
              let name = Printf.sprintf "h%d" !n_hoisted in
              incr n_hoisted;
              Hashtbl.replace hoisted s name;
              binds := (name, s) :: !binds
            end
          end
        | Texpr.Binop (_, a, b) | Texpr.Cmp (_, a, b) -> ex every a; ex every b
        | Texpr.And (a, b) | Texpr.Or (a, b) -> ex every a; ex false b
        | Texpr.Not a | Texpr.Cast (_, a) -> ex every a
        | Texpr.Select (c, a, b) -> ex every c; ex false a; ex false b
      in
      let rec st every (s : Stmt.t) =
        match s with
        | Stmt.For { var; extent; body; _ } ->
          for i = 0 to extent - 1 do
            with_var var ~iv:(i, i) ~lit:i (fun () -> st every body)
          done
        | Stmt.If { cond; then_; else_; _ } ->
          ex every cond;
          st false then_;
          Option.iter (st false) else_
        | Stmt.Seq l -> List.iter (st every) l
        | Stmt.Let (_, _, body) | Stmt.Alloc (_, body) ->
          List.iter (ex every) (own_exprs s);
          st every body
        | Stmt.Store _ | Stmt.Nop | Stmt.Intrin_call _ ->
          List.iter (ex every) (own_exprs s)
      in
      counting := false;
      st true body;
      counting := true;
      List.rev !binds
    end
  in
  let store_payload (b : Buffer.t) v =
    let dt = b.Buffer.dtype in
    let dv = Texpr.dtype_of v in
    match carrier_of dt, carrier_of dv with
    | Int_class, Int_class when Dtype.equal dt dv && raw_scratch b ->
      (* raw scratch keeps a raw chain raw *)
      let s, raw = rv v in
      defers v raw;
      s
    | Float_class, Float_class ->
      if Dtype.equal dt dv || Dtype.equal dt Dtype.F64 then re v
      else rounded dt (re v)
    | Float_class, Int_class -> rounded dt (Printf.sprintf "(float_of_int %s)" (re v))
    | Float_class, Int64_class -> rounded dt (Printf.sprintf "(Int64.to_float %s)" (re v))
    | Int_class, Int_class ->
      if Dtype.equal dt dv then re v
      else Printf.sprintf "(%s %s)" (wname dt) (re v)
    | Int_class, Float_class -> Printf.sprintf "(%s (trunc %s))" (wname dt) (re v)
    | Int_class, Int64_class -> Printf.sprintf "(%s (Int64.to_int %s))" (wname dt) (re v)
    | Int64_class, Int_class -> Printf.sprintf "(Int64.of_int %s)" (re v)
    | Int64_class, Float_class -> Printf.sprintf "(trunc64 %s)" (re v)
    | Int64_class, Int64_class -> re v
  in
  (* [k] renders inside [let name = value in] for each binding, which
     [hoist_loads] entered into [hoisted] for this scope. *)
  let with_binds ind binds k =
    if binds = [] then k ind
    else begin
      line ind "begin";
      List.iter (fun (n, v) -> line (ind + 1) (Printf.sprintf "let %s = %s in" n v)) binds;
      k (ind + 1);
      List.iter (fun (_, v) -> Hashtbl.remove hoisted v) binds;
      line ind "end;"
    end
  in
  let rec rs ind ~in_par (s : Stmt.t) =
    match s with
    | Stmt.Nop -> line ind "();"
    | Stmt.Seq stmts -> List.iter (rs ind ~in_par) stmts
    | Stmt.Store (b, _, v) when is_cell b ->
      line ind (Printf.sprintf "%s := %s;" (cellname b) (store_payload b v))
    | Stmt.Store (b, ix, v) when Hashtbl.mem tiling.tl_registers b.Buffer.id ->
      let p = Option.join (pairing_of b) in
      line ind (Printf.sprintf "%s := %s;" (reg_store b p ix) (store_payload b v))
    | Stmt.Store (b, ix, v) ->
      (* value before index, like the tree-walker *)
      line ind
        (Printf.sprintf "(let x_ = %s in %s);" (store_payload b v)
           (addr_in b ix (Printf.sprintf "Array.unsafe_set %s %s x_")))
    | Stmt.For { var; extent; body; _ } when unrollable s ->
      bump n_unrolled;
      (* a packed tile's lane loop renders its even copies, one per pair *)
      let step, lanes_packing =
        match Hashtbl.find_opt tiling.tl_lanes var.Var.id with
        | Some tile when Option.join (pairing_of tile) <> None -> (2, Some tile.Buffer.id)
        | _ -> (1, None)
      in
      let hoists = if extent > 1 then hoist_loads var body else [] in
      with_binds ind hoists (fun ind ->
          let was = !packing in
          if lanes_packing <> None then packing := lanes_packing;
          for c = 0 to (extent / step) - 1 do
            let i = c * step in
            with_var var ~iv:(i, i) ~lit:i (fun () -> rs ind ~in_par body)
          done;
          packing := was)
    | Stmt.For { var; extent; body; _ } when Hashtbl.mem tiling.tl_strided var.Var.id ->
      (* a microkernel's innermost reduction loop: each partial of the
         form [base + stride * var] becomes a pointer bumped by [stride] *)
      let rec peel acc (s : Stmt.t) =
        match s with
        | Stmt.Let (p, e, rest) when Hashtbl.mem hoisting.ht_partials p.Var.id -> (
          match step_of var p e with
          | Some (start, stride) -> peel ((p, e, start, stride) :: acc) rest
          | None -> (List.rev acc, s))
        | _ -> (List.rev acc, s)
      in
      let pointers, rest = peel [] body in
      let binds = if only_unrollable body then hoist_loads var body else [] in
      with_binds ind binds (fun ind ->
          line ind "begin";
          List.iter
            (fun (p, _, start, _) ->
              line (ind + 1) (Printf.sprintf "let %s_p = ref %s in" (vname p) start))
            pointers;
          line (ind + 1) (Printf.sprintf "for %s = 0 to %d do" (vname var) (extent - 1));
          let rec bind = function
            | [] -> rs (ind + 2) ~in_par rest
            | (p, e, _, _) :: ps ->
              line (ind + 2) (Printf.sprintf "let %s = !%s_p in" (vname p) (vname p));
              (* an offset partial has no interval, as it holds an offset *)
              let iv =
                if Hashtbl.mem hoisting.ht_carries p.Var.id then None
                else Option.bind (interval e) (Linear.fit p.Var.dtype)
              in
              with_var p ?iv (fun () -> bind ps)
          in
          with_var var ?iv:(Linear.fit var.Var.dtype (0, extent - 1)) (fun () -> bind pointers);
          List.iter
            (fun (p, _, _, stride) ->
              line (ind + 2) (Printf.sprintf "%s_p := %s + %d;" (vname p) (vname p) stride))
            pointers;
          line (ind + 1) "done;";
          line ind "end;")
    | Stmt.For { var; extent; kind; body } ->
      let iv = Linear.fit var.Var.dtype (0, extent - 1) in
      let binds =
        if extent >= 1 && only_unrollable body then hoist_loads var body else []
      in
      with_binds ind binds (fun ind ->
          if (match kind with Stmt.Parallel -> true | _ -> false) && not in_par then begin
            line ind (Printf.sprintf "par %d (fun %s ->" extent (vname var));
            with_var var ?iv (fun () -> rs (ind + 1) ~in_par:true body);
            line (ind + 1) "());"
          end
          else begin
            line ind (Printf.sprintf "for %s = 0 to %d do" (vname var) (extent - 1));
            with_var var ?iv (fun () -> rs (ind + 1) ~in_par body);
            line ind "done;"
          end)
    | Stmt.Let (v, e, body) when Hashtbl.mem hoisting.ht_carries v.Var.id ->
      (* an offset partial: no interval, as it holds an offset *)
      let base =
        match Hashtbl.find hoisting.ht_carries v.Var.id with
        | b, Offset, _ -> offname b
        | _, After p, _ -> vname p
      in
      line ind (Printf.sprintf "begin let %s = (%s + %s) in" (vname v) base (rint e));
      with_var v (fun () -> rs (ind + 1) ~in_par body);
      line ind "end;"
    | Stmt.Let (v, e, body) when Texpr.loads_of e = [] && not (reads v body) ->
      (* dead, and evaluating it cannot raise *)
      rs ind ~in_par body
    | Stmt.Let (v, e, body) ->
      if Dtype.is_float v.Var.dtype then
        unsupported "float-dtyped let %s" v.Var.name;
      (* the binding holds [e]'s canonical value; when its proven range
         fits the variable's dtype, reads need no per-reference wrap *)
      let iv = Option.bind (interval e) (Linear.fit v.Var.dtype) in
      line ind (Printf.sprintf "begin let %s = %s in" (vname v) (rint e));
      with_var v ?iv (fun () -> rs (ind + 1) ~in_par body);
      line ind "end;"
    | Stmt.If { cond; then_; else_; likely = _ } ->
      line ind (Printf.sprintf "if %s then begin" (rtruth cond));
      rs (ind + 1) ~in_par then_;
      (match else_ with
       | None -> line ind "end;"
       | Some e ->
         line ind "end else begin";
         rs (ind + 1) ~in_par e;
         line ind "end;")
    | Stmt.Alloc (b, body) when Hashtbl.mem tiling.tl_registers b.Buffer.id ->
      (* a register tile's microkernel: one local [ref] per cell around
         [body]; its parameters are the names in scope here that its
         source reads *)
      let scope = Hashtbl.create 16 in
      let add name ty = Hashtbl.replace scope name ty in
      Hashtbl.iter
        (fun id () ->
          if not (Hashtbl.mem lits id) then add (Printf.sprintf "v%d" (norm_var id)) (Some "int"))
        bound_vars;
      Hashtbl.iter (fun id _ -> add (Printf.sprintf "c%d" (norm_buf id)) None) defined;
      List.iter
        (fun (sl : Binding.slot) ->
          let k = norm_buf sl.sl_buf.Buffer.id in
          add (Printf.sprintf "c%d" k) (Some (carrier_type sl.sl_class ^ " array"));
          add (Printf.sprintf "o%d" k) (Some "int"))
        layout.l_slots;
      Hashtbl.iter (fun _ h -> add h None) hoisted;
      let kernel = !out in
      let src = B.create 4096 in
      out := src;
      uses := Some (Hashtbl.create 16);
      use_order := [];
      let cells =
        match Option.join (pairing_of b) with
        | Some _ ->
          n_pairs := !n_pairs + (b.Buffer.size / 2);
          b.Buffer.size / 2
        | None -> b.Buffer.size
      in
      if Hashtbl.mem tiling.tl_stored b.Buffer.id then incr n_stored;
      let zero = match carrier_of b.Buffer.dtype with Float_class -> "0." | _ -> "0" in
      line 1 "begin";
      for i = 0 to cells - 1 do
        line 2 (Printf.sprintf "let %s = ref %s in" (regname b i) zero)
      done;
      let prev = Hashtbl.find_opt defined b.Buffer.id in
      Hashtbl.replace defined b.Buffer.id false;
      rs 2 ~in_par body;
      (match prev with
       | Some p -> Hashtbl.replace defined b.Buffer.id p
       | None -> Hashtbl.remove defined b.Buffer.id);
      line 1 "end;";
      line 1 "()";
      out := kernel;
      uses := None;
      List.iter
        (fun p -> add (Printf.sprintf "c%d" (norm_buf p.pr_pairs.Buffer.id)) (Some "int array"))
        packs;
      let param n = Hashtbl.find_opt scope n in
      let params =
        match
          List.filter_map (fun n -> Option.map (fun ty -> (n, ty)) (param n)) (List.rev !use_order)
        with
        | [] -> [ ("()", None) ]
        | params -> params
      in
      let name = Printf.sprintf "tile%d" (List.length !microkernels) in
      microkernels := !microkernels @ [ (name, params, B.contents src) ];
      line ind (Printf.sprintf "%s %s;" name (String.concat " " (List.map fst params)))
    | Stmt.Alloc (b, body) ->
      let zero =
        match carrier_of b.Buffer.dtype with
        | Float_class -> "0."
        | Int_class -> "0"
        | Int64_class -> "0L"
      in
      let cell = is_scalar_cell b body in
      if cell then bump n_cells;
      line ind
        (if cell then Printf.sprintf "begin let %s = ref %s in" (cellname b) zero
         else
           Printf.sprintf "begin let %s = Array.make %d %s in" (cellname b)
             b.Buffer.size zero);
      let id = b.Buffer.id in
      let prev = Hashtbl.find_opt defined id and prev_cell = Hashtbl.mem cells id in
      Hashtbl.replace defined id false;
      if cell then Hashtbl.replace cells id () else Hashtbl.remove cells id;
      rs (ind + 1) ~in_par body;
      (match prev with
       | Some p -> Hashtbl.replace defined id p
       | None -> Hashtbl.remove defined id);
      if prev_cell then Hashtbl.replace cells id () else Hashtbl.remove cells id;
      line ind "end;"
    | Stmt.Intrin_call { intrin; _ } -> unsupported "unexpanded intrinsic %s" intrin
  in
  (* ---- module assembly: the body renders first, so the compact
     pairs it names are numbered before the kernel's head packs them *)
  rs 1 ~in_par:false hoisting.ht_body;
  let packs =
    List.sort
      (fun (k, _) (k', _) -> compare k k')
      (List.map (fun p -> (norm_buf p.pr_pairs.Buffer.id, p)) packs)
  in
  line 1 "()";
  let body = B.contents !out in
  let buf = B.create (String.length body + 1024) in
  out := buf;
  B.add_string buf "[@@@warning \"-a\"]\n";
  B.add_string buf
    (Printf.sprintf "(* generated by Unit_codegen.Emit v%d from %s *)\n" version
       func.Lower.fn_name);
  B.add_string buf "open Unit_emit_hook\n";
  List.iter
    (fun (name, params, src) ->
      let param (n, ty) = match ty with Some t -> Printf.sprintf "(%s : %s)" n t | None -> n in
      B.add_string buf
        (Printf.sprintf "\nlet %s %s =\n" name (String.concat " " (List.map param params)));
      B.add_string buf src)
    !microkernels;
  B.add_string buf "\nlet kernel af ai al offs par =\n";
  line 1 "ignore af; ignore ai; ignore al; ignore offs; ignore par;";
  List.iteri
    (fun slot (s : Binding.slot) ->
      let b = s.sl_buf in
      let arr = match s.sl_class with Float_class -> "af" | Int_class -> "ai" | Int64_class -> "al" in
      line 1 (Printf.sprintf "let %s = %s.(%d) in" (cellname b) arr s.sl_cell);
      let k = norm_buf b.Buffer.id in
      line 1 (Printf.sprintf "let o%d = offs.(%d) in" k slot);
      line 1 (Printf.sprintf "check_window %d %s o%d %d;" k (cellname b) k b.Buffer.size))
    layout.l_slots;
  List.iter
    (fun (k, p) ->
      let w = p.pr_weights in
      line 1
        (Printf.sprintf "let c%d = pack_pairs %s o%d %d %d in" k (cellname w)
           (norm_buf w.Buffer.id) w.Buffer.size p.pr_dist))
    packs;
  B.add_string buf body;
  Obs.add c_wraps_deferred !n_deferred;
  Obs.add c_loops_unrolled !n_unrolled;
  Obs.add c_loads_hoisted !n_hoisted;
  Obs.add c_index_terms_hoisted hoisting.ht_hoisted;
  Obs.add c_scalar_cells !n_cells;
  Obs.add c_tiles_promoted tiling.tl_tiles;
  Obs.add c_register_tiles (Hashtbl.length tiling.tl_registers);
  Obs.add c_lanes_packed !n_pairs;
  Obs.add c_copyouts_stored !n_stored;
  Obs.add c_accesses_unchecked !n_unchecked;
  Obs.add c_accesses_checked !n_checked;
  Obs.add c_tiles_outlined (List.length !microkernels);
  B.add_string buf "\nlet () = Unit_emit_hook.register kernel\n";
  let plan =
    {
      p_name = func.Lower.fn_name;
      p_layout = layout;
      p_diags = tiling.tl_diags;
    }
  in
  (plan, B.contents buf)
