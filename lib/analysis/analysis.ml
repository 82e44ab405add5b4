open Unit_dtype
open Unit_tir

type intrin_meta = {
  im_spatial : (string * int) list;
  im_reduce : (string * int) list;
  im_operands : Dtype.t list;
  im_accumulates : bool;
}

let find_var v vars =
  List.find_map (fun (w, r) -> if Var.equal v w then Some r else None) vars

(* Offsets the register window of [tile] reaches from its base: each
   strided axis spans [stride * (extent - 1)]; an axis [meta] does not
   know counts as extent 1. *)
let tile_span meta (tile : Stmt.tile) =
  let extent axis =
    match meta with
    | None -> 1
    | Some m ->
      (match List.assoc_opt axis m.im_spatial with
       | Some e -> e
       | None -> Option.value ~default:1 (List.assoc_opt axis m.im_reduce))
  in
  List.fold_left
    (fun (lo, hi) (axis, stride) ->
      let step = stride * (extent axis - 1) in
      (lo + Stdlib.min 0 step, hi + Stdlib.max 0 step))
    (0, 0) tile.Stmt.tile_strides

(* ------------------------------------------------------------------ *)
(* Guard refinement.                                                   *)
(* ------------------------------------------------------------------ *)

(* The constraint an [If] adds to its then-branch: [e < c] for a guard
   [e < c] or [e <= c - 1] with a constant bound — the split-residue
   guards lowering emits. *)
let refine guards (cond : Texpr.t) =
  match cond with
  | Texpr.Cmp (((Texpr.Lt | Texpr.Le) as c), e, bound) ->
    (match Texpr.as_const_int bound with
     | Some b -> (e, if c = Texpr.Lt then b else b + 1) :: guards
     | None -> guards)
  | _ -> guards

(* Replace every subtree structurally equal to [target] by [replacement]. *)
let rec replace_subtree ~target ~replacement e =
  let go = replace_subtree ~target ~replacement in
  if Texpr.equal_structural e target then replacement else Texpr.map_children go e

(* {!Linear.bounds} refined by guard constraints: each guarded
   subexpression is replaced by a fresh variable whose range is the
   guard's bound intersected with the subexpression's own range. *)
let refined_bounds ~env ~guards e =
  let lookup extra v =
    match find_var v extra with Some r -> Some r | None -> env v
  in
  let expr, extra =
    List.fold_left
      (fun (expr, extra) (guarded, upper) ->
        let own = Linear.bounds ~env:(lookup extra) guarded in
        let lo = match own with Some (l, _) -> Stdlib.max 0 l | None -> 0 in
        let hi =
          match own with
          | Some (_, h) -> Stdlib.min h (upper - 1)
          | None -> upper - 1
        in
        let placeholder = Var.create "guard_bound" in
        ( replace_subtree ~target:guarded ~replacement:(Texpr.var placeholder) expr,
          (placeholder, (lo, hi)) :: extra ))
      (e, []) guards
  in
  Linear.bounds ~env:(lookup extra) expr

(* ------------------------------------------------------------------ *)
(* Saturating interval arithmetic.                                     *)
(*                                                                     *)
(* Value ranges are tracked in OCaml ints clamped well inside the      *)
(* native range, so the analyzer's own arithmetic cannot wrap while    *)
(* reasoning about dtypes up to I64 (whose range is clamped inward —   *)
(* an under-approximation that can only make the lint quieter, never   *)
(* produce a false error).                                             *)
(* ------------------------------------------------------------------ *)

let range_cap = max_int / 4

let sat x = if x > range_cap then range_cap else if x < -range_cap then -range_cap else x
let sat_add a b = sat (a + b)

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if abs a > range_cap / abs b then
    if (a > 0) = (b > 0) then range_cap else -range_cap
  else sat (a * b)

let r_add (al, ah) (bl, bh) = (sat_add al bl, sat_add ah bh)
let r_sub (al, ah) (bl, bh) = (sat_add al (-bh), sat_add ah (-bl))

let r_mul (al, ah) (bl, bh) =
  let ps = [ sat_mul al bl; sat_mul al bh; sat_mul ah bl; sat_mul ah bh ] in
  (List.fold_left Stdlib.min range_cap ps, List.fold_left Stdlib.max (-range_cap) ps)

let r_hull (al, ah) (bl, bh) = (Stdlib.min al bl, Stdlib.max ah bh)
let r_hull0 r = r_hull r (0, 0)
let r_scale k r = r_mul (k, k) r

let dtype_range dt =
  if Dtype.is_integer dt then
    let clamp64 v =
      if Int64.compare v (Int64.of_int range_cap) > 0 then range_cap
      else if Int64.compare v (Int64.of_int (-range_cap)) < 0 then -range_cap
      else Int64.to_int v
    in
    Some (clamp64 (Dtype.min_int_value dt), clamp64 (Dtype.max_int_value dt))
  else None

let fits_dtype (lo, hi) dt =
  match dtype_range dt with Some (dl, dh) -> lo >= dl && hi <= dh | None -> true

(* ------------------------------------------------------------------ *)
(* Value-range analysis over expressions (for the overflow lint).      *)
(* ------------------------------------------------------------------ *)

(* Separate from Linear.bounds, the interval analysis proofs use: that
   one gives up ([None]) on any node whose range would not fit its
   dtype, while the lint needs a total over-approximation of the
   unwrapped value that never gives up, so it can say which node
   overflows.  Loads and unanalyzable subterms fall back to dtype
   ranges.  One walker serving both would branch on its caller. *)

let rec value_range env e =
  let dt = Texpr.dtype_of e in
  let top = match dtype_range dt with Some r -> r | None -> (-range_cap, range_cap) in
  match e with
  | Texpr.Imm v ->
    if Dtype.is_integer (Value.dtype v) then
      let x = sat (Int64.to_int (Value.to_int64 v)) in
      (x, x)
    else top
  | Texpr.Var v -> (match env v with Some r -> r | None -> top)
  | Texpr.Load (b, _) ->
    (match dtype_range b.Buffer.dtype with Some r -> r | None -> (-range_cap, range_cap))
  | Texpr.Cast (dst, inner) ->
    let r = value_range env inner in
    if Dtype.is_integer dst && Dtype.is_integer (Texpr.dtype_of inner) then
      if fits_dtype r dst then r else top
    else top
  | Texpr.Binop (Texpr.Add, a, b) -> r_add (value_range env a) (value_range env b)
  | Texpr.Binop (Texpr.Sub, a, b) -> r_sub (value_range env a) (value_range env b)
  | Texpr.Binop (Texpr.Mul, a, b) -> r_mul (value_range env a) (value_range env b)
  | Texpr.Binop (Texpr.Div, a, b) ->
    (match Texpr.as_const_int b with
     | Some c when c > 0 ->
       let l, h = value_range env a in
       (l / c, h / c)
     | _ -> top)
  | Texpr.Binop (Texpr.Mod, a, b) ->
    (match Texpr.as_const_int b with
     | Some c when c > 0 ->
       let l, _ = value_range env a in
       if l >= 0 then (0, c - 1) else (-(c - 1), c - 1)
     | _ -> top)
  | Texpr.Binop (Texpr.Min, a, b) ->
    let al, ah = value_range env a and bl, bh = value_range env b in
    (Stdlib.min al bl, Stdlib.min ah bh)
  | Texpr.Binop (Texpr.Max, a, b) ->
    let al, ah = value_range env a and bl, bh = value_range env b in
    (Stdlib.max al bl, Stdlib.max ah bh)
  | Texpr.Select (_, a, b) -> r_hull (value_range env a) (value_range env b)
  | Texpr.Cmp _ | Texpr.And _ | Texpr.Or _ | Texpr.Not _ -> (0, 1)

(* ------------------------------------------------------------------ *)
(* Divmod normalization.                                               *)
(*                                                                     *)
(* Lowering addresses a fused loop of extent Eo*Ei as [f / Ei] and     *)
(* [f mod Ei], which defeats Linear.coefficient_of.  Splitting f into  *)
(* fresh coordinates (fq, fr) with f := fq*Ei + fr and simplifying     *)
(* [(fq*Ei + fr) / Ei] back to [fq] recovers a linear index in the     *)
(* coordinates, over exactly the same iteration set (the fuse extents  *)
(* multiply exactly).  Chained fuses unfold one divisor per round.     *)
(* ------------------------------------------------------------------ *)

let direct_divisors v e =
  let rec go acc e =
    let acc =
      match e with
      | Texpr.Binop ((Texpr.Div | Texpr.Mod), Texpr.Var w, b) when Var.equal v w ->
        (match Texpr.as_const_int b with Some c when c > 1 -> c :: acc | _ -> acc)
      | _ -> acc
    in
    Texpr.fold_children go acc e
  in
  go [] e

(* Rewrite [(x*c + y) / c -> x] and [(x*c + y) mod c -> y] when
   0 <= y < c and x >= 0 — the shapes substitution introduces. *)
let rec simp env e =
  let resolved = Texpr.map_children (simp env) e in
  let reducible x y c =
    match Linear.bounds ~env y, Linear.bounds ~env x with
    | Some (ylo, yhi), Some (xlo, _) -> ylo >= 0 && yhi < c && xlo >= 0
    | _ -> false
  in
  let within c a = Linear.in_bounds ~size:c (Linear.bounds ~env a) in
  match resolved with
  | Texpr.Binop
      ((Texpr.Div | Texpr.Mod) as op,
       Texpr.Binop (Texpr.Add, Texpr.Binop (Texpr.Mul, x, c1), y),
       c2) ->
    (match Texpr.as_const_int c1, Texpr.as_const_int c2 with
     | Some a, Some b when a = b && a > 0 && reducible x y a ->
       if op = Texpr.Div then x else y
     | _ -> resolved)
  | Texpr.Binop (Texpr.Div, a, b) ->
    (* a in [0, c) divides to 0 — e.g. the quotient of an extent-1 fuse
       component *)
    (match Texpr.as_const_int b with
     | Some c when c > 0 && within c a -> Texpr.int_imm ~dtype:(Texpr.dtype_of a) 0
     | _ -> resolved)
  | Texpr.Binop (Texpr.Mod, a, b) ->
    (match Texpr.as_const_int b with
     | Some c when c > 0 && within c a -> a
     | _ -> resolved)
  | other -> other

(* Split fused coordinates until no coordinate appears under a matching
   Div/Mod.  Generic over the items carrying the expressions so both
   access records and bare index expressions can be normalized:
   [exprs_of] lists an item's expressions, [rewrite_in] maps a rewriter
   over them.  [env_other] bounds every non-coordinate variable. *)
let normalize_coords ~env_other ~exprs_of ~rewrite_in var extent items =
  let rec loop coords items round =
    if round >= 8 then (coords, items)
    else
      let exprs = List.concat_map exprs_of items in
      let split =
        List.find_map
          (fun (cv, ce) ->
            if ce <= 1 then None
            else
              List.concat_map (direct_divisors cv) exprs
              |> List.sort_uniq compare
              |> List.find_opt (fun c -> c > 1 && c < ce && ce mod c = 0)
              |> Option.map (fun c -> (cv, ce, c)))
          coords
      in
      match split with
      | None ->
        (* final cleanup: residual Div/Mod that bounds alone resolve
           (quotients over a coordinate's whole extent etc.) *)
        let env v =
          match find_var v coords with Some e -> Some (0, e - 1) | None -> env_other v
        in
        (coords, List.map (rewrite_in (simp env)) items)
      | Some (cv, ce, c) ->
        let vq = Var.create (cv.Var.name ^ "#q") in
        let vr = Var.create (cv.Var.name ^ "#r") in
        let coords =
          List.concat_map
            (fun (w, e) ->
              if Var.equal w cv then [ (vq, ce / c); (vr, c) ] else [ (w, e) ])
            coords
        in
        let env v =
          match find_var v coords with Some e -> Some (0, e - 1) | None -> env_other v
        in
        let repl =
          Texpr.add (Texpr.mul (Texpr.var vq) (Texpr.int_imm c)) (Texpr.var vr)
        in
        let rewrite e = simp env (Texpr.substitute [ (cv, repl) ] e) in
        loop coords (List.map (rewrite_in rewrite) items) (round + 1)
  in
  loop [ (var, extent) ] items 0

(* ------------------------------------------------------------------ *)
(* Accesses of annotated loops.                                        *)
(* ------------------------------------------------------------------ *)

(* One memory access of the analyzed loop body. *)
type access = {
  acc_buf : Buffer.t;
  acc_index : Texpr.t;
  acc_span : int * int;  (* register-window widening around the index *)
  acc_write : bool;
  acc_reduction : bool;  (* write that accumulates into its own element *)
  acc_inner : (Var.t * (int * int)) list;  (* vars bound inside the loop *)
  acc_guards : (Texpr.t * int) list;
  acc_what : string;
}

let access_exprs a = a.acc_index :: List.map fst a.acc_guards

let map_access_exprs f a =
  { a with
    acc_index = f a.acc_index;
    acc_guards = List.map (fun (e, b) -> (f e, b)) a.acc_guards
  }

let is_accumulating_store buf index value =
  List.exists
    (fun (b, ix) -> Buffer.equal b buf && Texpr.equal_structural ix index)
    (Texpr.loads_of value)

(* An annotated loop the walk is inside.  Its iterations' accesses are
   gathered as the walk meets them and judged when it leaves the loop.
   The scope lists are [ctx]'s just inside the loop, so what the walk
   has added on top of them is bound, guarded or allocated inside it. *)
type open_loop = {
  ol_vars : (Var.t * (int * int)) list;  (* with the loop's own variable *)
  ol_guards : (Texpr.t * int) list;
  ol_buffers : Buffer.t list;
  mutable ol_accesses : access list;  (* newest first *)
}

(* The elements consed onto [stop] to make [l]. *)
let rec added ~stop l =
  if l == stop then [] else match l with [] -> [] | x :: tl -> x :: added ~stop tl

(* ------------------------------------------------------------------ *)
(* Cross-iteration conflict test.                                      *)
(* ------------------------------------------------------------------ *)

type conflict =
  | Disjoint
  | Overlap  (* provably conflicting *)
  | Unknown

(* Sufficient criterion for the footprints of two distinct coordinate
   vectors to never meet: with coordinates sorted by |coefficient|
   ascending, each coefficient must out-jump the whole reach of the
   smaller ones plus the residual-difference window [m]. *)
let provably_disjoint coeffs m =
  let sorted = List.sort (fun (a, _) (b, _) -> compare (abs a) (abs b)) coeffs in
  let rec go reach = function
    | [] -> true
    | (c, e) :: rest ->
      let c = abs c in
      c > reach + m && go (sat_add reach (sat_mul c (e - 1))) rest
  in
  go 0 sorted

(* Interval of [index + span] with the iteration coordinates and every
   outer variable pinned to 0 (outer contributions cancel between two
   iterations of the same loop) and inner variables free over their
   ranges.  Guard refinements are intersected in only when they help. *)
let residual ~coords ~outer (a : access) =
  let env v =
    if List.exists (fun (w, _) -> Var.equal v w) coords then Some (0, 0)
    else
      match find_var v a.acc_inner with
      | Some r -> Some r
      | None -> if List.exists (Var.equal v) outer then Some (0, 0) else None
  in
  let plain = Linear.bounds ~env a.acc_index in
  let guarded =
    match a.acc_guards with
    | [] -> None
    | guards -> refined_bounds ~env ~guards a.acc_index
  in
  let combined =
    match plain, guarded with
    | Some (al, ah), Some (bl, bh) -> Some (Stdlib.max al bl, Stdlib.min ah bh)
    | Some r, None | None, Some r -> Some r
    | None, None -> None
  in
  Option.map (fun (lo, hi) -> (lo + fst a.acc_span, hi + snd a.acc_span)) combined

let same_footprint a b =
  Texpr.equal_structural a.acc_index b.acc_index && a.acc_span = b.acc_span

(* Conflict between access [a] of one iteration and access [b] of a
   different iteration of the loop whose (normalized) coordinates are
   [coords]. *)
let cross_iteration ~coords ~outer a b =
  let identical = same_footprint a b in
  let coeffs =
    List.filter_map
      (fun (cv, e) ->
        if e <= 1 then None
        else
          match
            ( Linear.coefficient_of a.acc_index cv,
              Linear.coefficient_of b.acc_index cv )
          with
          | Some ca, Some cb when ca = cb -> Some (Some (ca, e))
          | _ -> Some None)
      coords
  in
  if List.exists (( = ) None) coeffs then Unknown
  else
    let coeffs = List.filter_map Fun.id coeffs in
    if coeffs = [] then Disjoint (* no two distinct iterations exist *)
    else if
      (* Outer-variable contributions only cancel when both indices use
         them identically. *)
      (not identical)
      && not
           (List.for_all
              (fun v ->
                match
                  ( Linear.coefficient_of a.acc_index v,
                    Linear.coefficient_of b.acc_index v )
                with
                | Some ca, Some cb -> ca = cb
                | _ -> false)
              outer)
    then Unknown
    else
      match residual ~coords ~outer a, residual ~coords ~outer b with
      | Some (alo, ahi), Some (blo, bhi) ->
        let m = Stdlib.max (abs (blo - ahi)) (abs (bhi - alo)) in
        if provably_disjoint coeffs m then Disjoint
        else if identical && List.exists (fun (c, _) -> c = 0) coeffs then
          (* A zero-coefficient coordinate leaves a structurally identical
             footprint untouched: two iterations provably collide. *)
          Overlap
        else Unknown
      | _ -> Unknown

(* ------------------------------------------------------------------ *)
(* Per-loop race / carried-dependence analysis.                        *)
(* ------------------------------------------------------------------ *)

let pair_kind a b = if a.acc_write && b.acc_write then "write/write" else "write/read"

let analyze_loop ~outer_env ~push kind var extent accesses =
  let env_other v =
    match find_var v (List.concat_map (fun a -> a.acc_inner) accesses) with
    | Some r -> Some r
    | None -> find_var v outer_env
  in
  let coords, accesses =
    normalize_coords ~env_other ~exprs_of:access_exprs ~rewrite_in:map_access_exprs
      var extent accesses
  in
  let outer = List.map fst outer_env in
  let loop = var.Var.name in
  let reduction_exempt a b =
    (* the scalar semantics serializes vectorized/unrolled iterations, so
       a recognizable accumulation into one element is not a hazard *)
    kind <> Stmt.Parallel && same_footprint a b
    && List.for_all (fun x -> (not x.acc_write) || x.acc_reduction) [ a; b ]
  in
  let judge a b =
    if
      Buffer.equal a.acc_buf b.acc_buf
      && (a.acc_write || b.acc_write)
      && not (reduction_exempt a b)
    then begin
      let buf = a.acc_buf.Buffer.name in
      let what = pair_kind a b in
      match cross_iteration ~coords ~outer a b with
      | Disjoint -> ()
      | Overlap ->
        (match kind with
         | Stmt.Parallel ->
           push
             (Diag.errorf Diag.Race
                "parallel loop %s: iterations have a %s conflict on %s (%s vs %s)"
                loop what buf a.acc_what b.acc_what)
         | Stmt.Vectorized ->
           push
             (Diag.errorf Diag.Carried_dep
                "vectorized loop %s carries a non-reduction %s dependence on %s (%s vs %s)"
                loop what buf a.acc_what b.acc_what)
         | _ ->
           push
             (Diag.warnf Diag.Carried_dep
                "unrolled loop %s carries a %s dependence on %s (%s vs %s)" loop
                what buf a.acc_what b.acc_what))
      | Unknown ->
        (match kind with
         | Stmt.Parallel ->
           push
             (Diag.warnf Diag.Race
                "parallel loop %s: cannot prove iterations access %s disjointly (%s, %s vs %s)"
                loop buf what a.acc_what b.acc_what)
         | Stmt.Vectorized ->
           push
             (Diag.warnf Diag.Carried_dep
                "vectorized loop %s: cannot rule out a carried %s dependence on %s"
                loop what buf)
         | _ -> ())
    end
  in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter (judge a) (a :: rest);
      pairs rest
  in
  pairs accesses

(* ------------------------------------------------------------------ *)
(* Tensorize legality and overflow at an Intrin_call.                  *)
(* ------------------------------------------------------------------ *)

(* How many times an enclosing loop of [extent] iterations revisits the
   same elements of [base]: the product of the extents of the loop's
   coordinates that provably do not move the index (after unfolding any
   fused div/mod addressing).  Unanalyzable coordinates count as
   revisits — conservative for a warning-level check. *)
let revisit_factor ~env_other var extent base =
  let coords, bases =
    normalize_coords ~env_other ~exprs_of:(fun e -> [ e ])
      ~rewrite_in:(fun f e -> f e)
      var extent [ base ]
  in
  let base = List.hd bases in
  List.fold_left
    (fun acc (cv, e) ->
      if e <= 1 then acc
      else
        match Linear.coefficient_of base cv with
        | Some 0 | None -> sat_mul acc e
        | Some _ -> acc)
    1 coords

let check_intrin ~push ~loops ~env_other name meta (output : Stmt.tile) =
  let out_buf = output.Stmt.tile_buf.Buffer.name in
  (* 1. the output tile must not stride along a reduction axis *)
  List.iter
    (fun (axis, stride) ->
      if stride <> 0 && List.mem_assoc axis meta.im_reduce then
        push
          (Diag.errorf Diag.Tensorize_footprint
             "%s: output tile on %s strides along reduction axis %s" name out_buf
             axis))
    output.Stmt.tile_strides;
  (* 2. distinct spatial lanes must hit distinct elements *)
  let spatial_strides =
    List.filter_map
      (fun (axis, extent) ->
        if extent <= 1 then None
        else
          Some
            ( axis,
              (match List.assoc_opt axis output.Stmt.tile_strides with
               | Some s -> s
               | None -> 0),
              extent ))
      meta.im_spatial
  in
  List.iter
    (fun (axis, stride, _) ->
      if stride = 0 then
        push
          (Diag.errorf Diag.Tensorize_footprint
             "%s: output tile on %s broadcasts along spatial axis %s — lanes collide"
             name out_buf axis))
    spatial_strides;
  let lane_coeffs = List.map (fun (_, s, e) -> (s, e)) spatial_strides in
  if
    List.for_all (fun (s, _) -> s <> 0) lane_coeffs
    && not (provably_disjoint lane_coeffs 0)
  then
    push
      (Diag.errorf Diag.Tensorize_footprint
         "%s: output tile on %s is not injective over its spatial lanes" name
         out_buf);
  (* 3. reuse of the output tile across enclosing loops requires a
        genuinely accumulating instruction *)
  let revisits =
    List.fold_left
      (fun acc (v, extent) ->
        sat_mul acc (revisit_factor ~env_other v extent output.Stmt.tile_base))
      1 loops
  in
  if revisits > 1 && not meta.im_accumulates then
    push
      (Diag.errorf Diag.Tensorize_footprint
         "%s does not accumulate, but enclosing loops re-issue it %d times over the same output tile on %s"
         name revisits out_buf);
  (* 4. accumulator range *)
  match meta.im_operands with
  | [ d1; d2 ] ->
    (match dtype_range d1, dtype_range d2 with
     | Some r1, Some r2 ->
       let per_mac = r_mul r1 r2 in
       let width = List.fold_left (fun acc (_, e) -> sat_mul acc e) 1 meta.im_reduce in
       let acc_dt = output.Stmt.tile_buf.Buffer.dtype in
       let single = r_hull0 (r_scale width per_mac) in
       (* Widening multiply-adds (operands strictly narrower than the
          accumulator, e.g. i16 [vpmaddwd] pairs into i32) can exceed the
          accumulator only at the symmetric corner where every operand is
          the type's most-negative value: the ISA defines that one result
          (saturation or wrap to INT_MIN), so erroring on it is a false
          positive.  Re-check with the most-negative operand value carved
          out; if that symmetric range fits, warn instead of reject. *)
       let symmetric dt r =
         match r with
         | lo, hi when Dtype.is_signed dt && lo < -hi -> (-hi, hi)
         | r -> r
       in
       let single_sym =
         r_hull0 (r_scale width (r_mul (symmetric d1 r1) (symmetric d2 r2)))
       in
       let widening =
         match dtype_range acc_dt with
         | Some (alo, ahi) ->
           (* both operand ranges strictly inside the accumulator's *)
           List.for_all
             (fun (lo, hi) -> lo > alo && hi < ahi)
             [ r1; r2 ]
         | None -> false
       in
       if not (fits_dtype single acc_dt) then begin
         if widening && fits_dtype single_sym acc_dt then
           push
             (Diag.warnf Diag.Overflow
                "%s: only the all-%d corner reaches %d in %s (%s) — defined by the widening idiom, not rejected"
                name (fst r1)
                (Stdlib.max (abs (fst single)) (abs (snd single)))
                out_buf (Dtype.to_string acc_dt))
         else
           push
             (Diag.errorf Diag.Overflow
                "%s: one issue accumulates up to %d into %s (%s)" name
                (Stdlib.max (abs (fst single)) (abs (snd single)))
                out_buf (Dtype.to_string acc_dt))
       end
       else begin
         let total = r_hull0 (r_scale revisits (r_scale width per_mac)) in
         if not (fits_dtype total acc_dt) then
           push
             (Diag.warnf Diag.Overflow
                "%s: accumulation chain over enclosing loops may reach %d, beyond %s range of %s"
                name
                (Stdlib.max (abs (fst total)) (abs (snd total)))
                (Dtype.to_string acc_dt) out_buf)
       end
     | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Overflow lint for scalar expressions and stores.                    *)
(* ------------------------------------------------------------------ *)

(* Walk an expression, flagging integer nodes that provably wrap their
   own dtype (error) and narrowing casts that cannot be proven in range
   (warning); returns the node's value range. *)
let rec lint_expr ~push env e =
  match e with
  | Texpr.Imm _ | Texpr.Var _ -> value_range env e
  | Texpr.Load (b, ix) ->
    ignore (lint_expr ~push env ix);
    (match dtype_range b.Buffer.dtype with Some r -> r | None -> (-range_cap, range_cap))
  | Texpr.Cast (dst, inner) ->
    let r = lint_expr ~push env inner in
    let src = Texpr.dtype_of inner in
    if Dtype.is_integer src && Dtype.is_integer dst then
      if Dtype.can_cast_losslessly ~src ~dst || fits_dtype r dst then r
      else begin
        push
          (Diag.warnf Diag.Overflow
             "narrowing cast %s -> %s may truncate (operand range [%d, %d])"
             (Dtype.to_string src) (Dtype.to_string dst) (fst r) (snd r));
        match dtype_range dst with Some dr -> dr | None -> r
      end
    else value_range env e
  | Texpr.Binop (op, a, b) ->
    let ra = lint_expr ~push env a in
    let rb = lint_expr ~push env b in
    let dt = Texpr.dtype_of e in
    let combined =
      match op with
      | Texpr.Add -> Some (r_add ra rb)
      | Texpr.Sub -> Some (r_sub ra rb)
      | Texpr.Mul -> Some (r_mul ra rb)
      | _ -> None
    in
    (match combined with
     | Some r when Dtype.is_integer dt ->
       if fits_dtype r dt then r
       else begin
         if abs (fst r) < range_cap && abs (snd r) < range_cap then
           push
             (Diag.errorf Diag.Overflow
                "%s arithmetic wraps: result range [%d, %d] exceeds the dtype"
                (Dtype.to_string dt) (fst r) (snd r));
         match dtype_range dt with Some dr -> dr | None -> r
       end
     | _ -> value_range env e)
  | Texpr.Cmp (_, a, b) | Texpr.And (a, b) | Texpr.Or (a, b) ->
    ignore (lint_expr ~push env a);
    ignore (lint_expr ~push env b);
    (0, 1)
  | Texpr.Not a ->
    ignore (lint_expr ~push env a);
    (0, 1)
  | Texpr.Select (c, a, b) ->
    ignore (lint_expr ~push env c);
    r_hull (lint_expr ~push env a) (lint_expr ~push env b)

let lint_store ~diags ~loops env buf index value =
  let push d = diags := d :: !diags in
  ignore (lint_expr ~push env index);
  let accumulated =
    match value with
    | Texpr.Binop (Texpr.Add, Texpr.Load (b, ix), rest)
      when Buffer.equal b buf && Texpr.equal_structural ix index -> Some rest
    | Texpr.Binop (Texpr.Add, rest, Texpr.Load (b, ix))
      when Buffer.equal b buf && Texpr.equal_structural ix index -> Some rest
    | _ -> None
  in
  match accumulated with
  | Some rest ->
    let before = !diags in
    let r = lint_expr ~push env rest in
    let dt = buf.Buffer.dtype in
    (* only add the store-level diagnosis when the operand expression
       itself was clean, to avoid piling onto one root cause *)
    if !diags == before then begin
      let single = r_hull0 r in
      if not (fits_dtype single dt) then
        push
          (Diag.errorf Diag.Overflow
             "accumulation into %s (%s): a single update already reaches [%d, %d]"
             buf.Buffer.name (Dtype.to_string dt) (fst single) (snd single))
      else begin
        let revisits =
          List.fold_left
            (fun acc (v, extent) -> sat_mul acc (revisit_factor ~env_other:env v extent index))
            1 loops
        in
        let total = r_hull0 (r_scale revisits r) in
        if revisits > 1 && not (fits_dtype total dt) then
          push
            (Diag.warnf Diag.Overflow
               "accumulation into %s over %d iterations may reach [%d, %d], beyond %s"
               buf.Buffer.name revisits (fst total) (snd total) (Dtype.to_string dt))
      end
    end
  | None ->
    let r = lint_expr ~push env value in
    if Dtype.is_integer (Texpr.dtype_of value) && not (fits_dtype r buf.Buffer.dtype)
    then
      push
        (Diag.warnf Diag.Overflow
           "store to %s (%s): value range [%d, %d] exceeds the buffer dtype"
           buf.Buffer.name
           (Dtype.to_string buf.Buffer.dtype)
           (fst r) (snd r))

(* ------------------------------------------------------------------ *)
(* The walk's context and access recording.                            *)
(* ------------------------------------------------------------------ *)

(* What the walk knows at a node. *)
type ctx = {
  vars : (Var.t * (int * int)) list;  (* loop/let variables in scope, with ranges *)
  buffers : Buffer.t list;  (* function tensors and enclosing [Alloc]s *)
  guards : (Texpr.t * int) list;  (* refinements of the enclosing [If]s *)
  loops : (Var.t * int) list;  (* enclosing loops and their extents *)
  open_loops : open_loop list;  (* enclosing annotated loops *)
}

(* Note one access in every enclosing annotated loop it is not private to
   (a buffer allocated inside the loop is per iteration). *)
let record ctx ~write ~reduction ~span ~what buf index =
  List.iter
    (fun ol ->
      if not (List.exists (Buffer.equal buf) (added ~stop:ol.ol_buffers ctx.buffers)) then
        ol.ol_accesses <-
          { acc_buf = buf;
            acc_index = index;
            acc_span = span;
            acc_write = write;
            acc_reduction = reduction;
            acc_inner = added ~stop:ol.ol_vars ctx.vars;
            acc_guards = added ~stop:ol.ol_guards ctx.guards;
            acc_what = what
          }
          :: ol.ol_accesses)
    ctx.open_loops

let record_loads ctx e =
  if ctx.open_loops <> [] then
    List.iter
      (fun (b, ix) -> record ctx ~write:false ~reduction:false ~span:(0, 0) ~what:"load" b ix)
      (Texpr.loads_of e)

(* ------------------------------------------------------------------ *)
(* Well-formedness: scope, canonical loops, bounds, tile windows.      *)
(* ------------------------------------------------------------------ *)

let bounds ctx e = refined_bounds ~env:(fun v -> find_var v ctx.vars) ~guards:ctx.guards e
let in_scope ctx b = List.exists (Buffer.equal b) ctx.buffers
let unbound ctx e = List.filter (fun v -> find_var v ctx.vars = None) (Texpr.vars_of e)

let check_access ~push ctx ~what (buf : Buffer.t) index =
  let name = buf.Buffer.name in
  if not (in_scope ctx buf) then
    push (Diag.errorf Diag.Scope "%s of %s: buffer not in scope" what name)
  else begin
    List.iter
      (fun v ->
        push (Diag.errorf Diag.Scope "%s of %s: unbound variable %s" what name v.Var.name))
      (unbound ctx index);
    match bounds ctx index with
    | None -> push (Diag.errorf Diag.Bounds "%s of %s: index not analyzable" what name)
    | Some (lo, hi) ->
      if lo < 0 || hi >= buf.Buffer.size then
        push
          (Diag.errorf Diag.Bounds "%s of %s: index range [%d, %d] outside [0, %d)" what
             name lo hi buf.Buffer.size)
  end

let check_expr ~push ctx e =
  List.iter
    (fun v -> push (Diag.errorf Diag.Scope "unbound variable %s" v.Var.name))
    (unbound ctx e);
  List.iter (fun (buf, index) -> check_access ~push ctx ~what:"load" buf index)
    (Texpr.loads_of e)

let check_tile ~push ctx name meta (tile : Stmt.tile) =
  let buf = tile.Stmt.tile_buf in
  if not (in_scope ctx buf) then
    push (Diag.errorf Diag.Scope "tile buffer %s not in scope" buf.Buffer.name)
  else begin
    List.iter
      (fun (axis, _) ->
        if not (List.mem_assoc axis meta.im_spatial || List.mem_assoc axis meta.im_reduce)
        then
          push
            (Diag.errorf Diag.Tile "tile on %s: axis %s is not an axis of %s"
               buf.Buffer.name axis name))
      tile.Stmt.tile_strides;
    (* the whole register window must stay inside the buffer *)
    match bounds ctx tile.Stmt.tile_base with
    | None -> push (Diag.errorf Diag.Tile "tile on %s: base not analyzable" buf.Buffer.name)
    | Some (lo, hi) ->
      let slo, shi = tile_span (Some meta) tile in
      if lo + slo < 0 || hi + shi >= buf.Buffer.size then
        push
          (Diag.errorf Diag.Tile "tile on %s: window [%d, %d] outside [0, %d)"
             buf.Buffer.name (lo + slo) (hi + shi) buf.Buffer.size)
  end

(* ------------------------------------------------------------------ *)
(* Top-level walk.                                                     *)
(* ------------------------------------------------------------------ *)

let default_intrin _ = None

let run ~intrin ~params stmt =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let rec walk ctx (s : Stmt.t) =
    let lookup v = find_var v ctx.vars in
    match s with
    | Stmt.Nop -> ()
    | Stmt.Seq stmts -> List.iter (walk ctx) stmts
    | Stmt.Store (buf, index, value) ->
      check_expr ~push ctx value;
      check_access ~push ctx ~what:"store" buf index;
      lint_store ~diags ~loops:ctx.loops lookup buf index value;
      record_loads ctx index;
      record_loads ctx value;
      if ctx.open_loops <> [] then
        record ctx ~write:true ~reduction:(is_accumulating_store buf index value)
          ~span:(0, 0) ~what:"store" buf index
    | Stmt.If { cond; then_; else_; _ } ->
      check_expr ~push ctx cond;
      ignore (lint_expr ~push lookup cond);
      record_loads ctx cond;
      walk { ctx with guards = refine ctx.guards cond } then_;
      Option.iter (walk ctx) else_
    | Stmt.Let (v, e, body) ->
      check_expr ~push ctx e;
      record_loads ctx e;
      (* the lint's total range, narrowed by the proof's when it has one *)
      let r = lint_expr ~push lookup e in
      let r = Option.value ~default:r (bounds ctx e) in
      walk { ctx with vars = (v, r) :: ctx.vars } body
    | Stmt.Alloc (b, body) -> walk { ctx with buffers = b :: ctx.buffers } body
    | Stmt.For { var; extent; kind; body } ->
      if extent <= 0 then
        push (Diag.errorf Diag.Canonical "loop %s has extent %d" var.Var.name extent);
      if lookup var <> None then
        push (Diag.errorf Diag.Canonical "loop variable %s rebound" var.Var.name);
      let inside =
        { ctx with
          vars = (var, (0, Stdlib.max 0 (extent - 1))) :: ctx.vars;
          loops = (var, extent) :: ctx.loops
        }
      in
      (match kind with
       | (Stmt.Parallel | Stmt.Vectorized | Stmt.Unrolled) when extent > 1 ->
         let ol =
           { ol_vars = inside.vars; ol_guards = ctx.guards; ol_buffers = ctx.buffers;
             ol_accesses = [] }
         in
         (* the loop's own verdicts precede its body's *)
         let before = !diags in
         diags := [];
         walk { inside with open_loops = ol :: ctx.open_loops } body;
         let body_diags = !diags in
         diags := before;
         analyze_loop ~outer_env:ctx.vars ~push kind var extent (List.rev ol.ol_accesses);
         diags := body_diags @ !diags
       | _ -> walk inside body)
    | Stmt.Intrin_call { intrin = name; output; inputs } ->
      let meta = intrin name in
      (match meta with
       | None -> push (Diag.errorf Diag.Tile "unknown instruction %s" name)
       | Some meta ->
         List.iter (check_tile ~push ctx name meta) (output :: List.map snd inputs);
         check_intrin ~push ~loops:ctx.loops ~env_other:lookup name meta output);
      if ctx.open_loops <> [] then begin
        let accumulates = match meta with Some m -> m.im_accumulates | None -> true in
        let tile_access ~write what (tile : Stmt.tile) =
          record ctx ~write ~reduction:(write && accumulates) ~span:(tile_span meta tile)
            ~what tile.Stmt.tile_buf tile.Stmt.tile_base
        in
        tile_access ~write:true (name ^ " output tile") output;
        if accumulates then tile_access ~write:false (name ^ " accumulator tile") output;
        List.iter (fun (_, tl) -> tile_access ~write:false (name ^ " input tile") tl) inputs
      end
  in
  walk { vars = []; buffers = params; guards = []; loops = []; open_loops = [] } stmt;
  (* identical conflicts can surface through several access pairs; keep
     the first occurrence of each distinct diagnostic *)
  let seen = Hashtbl.create 16 in
  List.rev !diags
  |> List.filter (fun (d : Diag.t) ->
       let key = (d.Diag.rule, d.Diag.severity, d.Diag.detail) in
       if Hashtbl.mem seen key then false
       else begin
         Hashtbl.add seen key ();
         true
       end)

let check_stmt ?(intrin = default_intrin) ~params stmt = run ~intrin ~params stmt

let check_func ?(intrin = default_intrin) (func : Lower.func) =
  run ~intrin ~params:(List.map snd func.Lower.fn_tensors) func.Lower.fn_body
