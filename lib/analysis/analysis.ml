open Unit_dtype
open Unit_tir

type intrin_meta = {
  im_spatial : (string * int) list;
  im_reduce : (string * int) list;
  im_operands : Dtype.t list;
  im_accumulates : bool;
}

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
    match e with
    | Texpr.Imm _ | Texpr.Var _ -> acc
    | Texpr.Load (_, ix) -> go acc ix
    | Texpr.Binop (_, a, b) | Texpr.Cmp (_, a, b) | Texpr.And (a, b) | Texpr.Or (a, b) ->
      go (go acc a) b
    | Texpr.Not a | Texpr.Cast (_, a) -> go acc a
    | Texpr.Select (c, a, b) -> go (go (go acc c) a) b
  in
  go [] e

(* Rewrite [(x*c + y) / c -> x] and [(x*c + y) mod c -> y] when
   0 <= y < c and x >= 0 — the shapes substitution introduces. *)
let rec simp env e =
  let resolved =
    match e with
    | Texpr.Imm _ | Texpr.Var _ -> e
    | Texpr.Load (b, ix) -> Texpr.load b (simp env ix)
    | Texpr.Binop (op, a, b) -> Texpr.binop op (simp env a) (simp env b)
    | Texpr.Cmp (c, a, b) -> Texpr.cmp c (simp env a) (simp env b)
    | Texpr.And (a, b) -> Texpr.and_ (simp env a) (simp env b)
    | Texpr.Or (a, b) -> Texpr.or_ (simp env a) (simp env b)
    | Texpr.Not a -> Texpr.not_ (simp env a)
    | Texpr.Cast (dt, a) -> Texpr.cast dt (simp env a)
    | Texpr.Select (c, a, b) -> Texpr.select (simp env c) (simp env a) (simp env b)
  in
  let reducible x y c =
    match Linear.bounds ~env y, Linear.bounds ~env x with
    | Some (ylo, yhi), Some (xlo, _) -> ylo >= 0 && yhi < c && xlo >= 0
    | _ -> false
  in
  let within c a =
    match Linear.bounds ~env a with
    | Some (lo, hi) -> lo >= 0 && hi < c
    | None -> false
  in
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
          match
            List.find_map
              (fun (w, e) -> if Var.equal v w then Some (0, e - 1) else None)
              coords
          with
          | Some r -> Some r
          | None -> env_other v
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
          match
            List.find_map
              (fun (w, e) -> if Var.equal v w then Some (0, e - 1) else None)
              coords
          with
          | Some r -> Some r
          | None -> env_other v
        in
        let repl =
          Texpr.add (Texpr.mul (Texpr.var vq) (Texpr.int_imm c)) (Texpr.var vr)
        in
        let rewrite e = simp env (Texpr.substitute [ (cv, repl) ] e) in
        loop coords (List.map (rewrite_in rewrite) items) (round + 1)
  in
  loop [ (var, extent) ] items 0

(* ------------------------------------------------------------------ *)
(* Access collection.                                                  *)
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

let tile_span ~axes (tile : Stmt.tile) =
  List.fold_left
    (fun (lo, hi) (axis, stride) ->
      let extent = match List.assoc_opt axis axes with Some e -> e | None -> 1 in
      let step = stride * (extent - 1) in
      (lo + Stdlib.min 0 step, hi + Stdlib.max 0 step))
    (0, 0) tile.Stmt.tile_strides

let is_accumulating_store buf index value =
  List.exists
    (fun (b, ix) -> Buffer.equal b buf && Texpr.equal_structural ix index)
    (Texpr.loads_of value)

(* Collect every access of [body], tracking variables bound inside the
   analyzed loop, guard refinements, and locally allocated buffers
   (private per iteration, hence excluded from race analysis). *)
let collect_accesses ~intrin body =
  let out = ref [] in
  let push a = out := a :: !out in
  let reads_of ~inner ~guards ~local e =
    List.iter
      (fun (b, ix) ->
        if not (List.exists (Buffer.equal b) local) then
          push
            { acc_buf = b;
              acc_index = ix;
              acc_span = (0, 0);
              acc_write = false;
              acc_reduction = false;
              acc_inner = inner;
              acc_guards = guards;
              acc_what = "load"
            })
      (Texpr.loads_of e)
  in
  let rec go inner guards local (s : Stmt.t) =
    match s with
    | Stmt.Nop -> ()
    | Stmt.Seq stmts -> List.iter (go inner guards local) stmts
    | Stmt.Store (buf, index, value) ->
      reads_of ~inner ~guards ~local index;
      reads_of ~inner ~guards ~local value;
      if not (List.exists (Buffer.equal buf) local) then
        push
          { acc_buf = buf;
            acc_index = index;
            acc_span = (0, 0);
            acc_write = true;
            acc_reduction = is_accumulating_store buf index value;
            acc_inner = inner;
            acc_guards = guards;
            acc_what = "store"
          }
    | Stmt.For { var; extent; body; _ } ->
      go ((var, (0, Stdlib.max 0 (extent - 1))) :: inner) guards local body
    | Stmt.If { cond; then_; else_; _ } ->
      reads_of ~inner ~guards ~local cond;
      let refined =
        match cond with
        | Texpr.Cmp (Texpr.Lt, e, bound) ->
          (match Texpr.as_const_int bound with
           | Some c -> (e, c) :: guards
           | None -> guards)
        | Texpr.Cmp (Texpr.Le, e, bound) ->
          (match Texpr.as_const_int bound with
           | Some c -> (e, c + 1) :: guards
           | None -> guards)
        | _ -> guards
      in
      go inner refined local then_;
      Option.iter (go inner guards local) else_
    | Stmt.Let (v, e, body) ->
      reads_of ~inner ~guards ~local e;
      go ((v, (-range_cap, range_cap)) :: inner) guards local body
    | Stmt.Alloc (b, body) -> go inner guards (b :: local) body
    | Stmt.Intrin_call { intrin = name; output; inputs } ->
      let meta = intrin name in
      let axes =
        match meta with
        | Some m -> m.im_spatial @ m.im_reduce
        | None -> []
      in
      let accumulates =
        match meta with Some m -> m.im_accumulates | None -> true
      in
      let tile_access ~write what (tile : Stmt.tile) =
        if not (List.exists (Buffer.equal tile.Stmt.tile_buf) local) then
          push
            { acc_buf = tile.Stmt.tile_buf;
              acc_index = tile.Stmt.tile_base;
              acc_span = tile_span ~axes tile;
              acc_write = write;
              acc_reduction = write && accumulates;
              acc_inner = inner;
              acc_guards = guards;
              acc_what = what
            }
      in
      tile_access ~write:true (name ^ " output tile") output;
      if accumulates then tile_access ~write:false (name ^ " accumulator tile") output;
      List.iter (fun (_, tl) -> tile_access ~write:false (name ^ " input tile") tl) inputs
  in
  go [] [] [] body;
  List.rev !out

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
      match
        List.find_map
          (fun (w, r) -> if Var.equal v w then Some r else None)
          a.acc_inner
      with
      | Some r -> Some r
      | None -> if List.exists (Var.equal v) outer then Some (0, 0) else None
  in
  let plain = Linear.bounds ~env a.acc_index in
  let guarded =
    match a.acc_guards with
    | [] -> None
    | guards -> Validate.refined_bounds ~env ~guards a.acc_index
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

let analyze_loop ~intrin ~outer_env ~push kind var extent body =
  let accesses = collect_accesses ~intrin body in
  let env_other v =
    match
      List.find_map
        (fun (w, r) -> if Var.equal v w then Some r else None)
        (List.concat_map (fun a -> a.acc_inner) accesses)
    with
    | Some r -> Some r
    | None ->
      List.find_map (fun (w, r) -> if Var.equal v w then Some r else None) outer_env
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
(* Top-level walk.                                                     *)
(* ------------------------------------------------------------------ *)

let default_intrin _ = None

let run ~intrin stmt =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let rec walk env loops (s : Stmt.t) =
    let lookup v =
      List.find_map (fun (w, r) -> if Var.equal v w then Some r else None) env
    in
    match s with
    | Stmt.Nop -> ()
    | Stmt.Seq stmts -> List.iter (walk env loops) stmts
    | Stmt.Store (buf, index, value) -> lint_store ~diags ~loops lookup buf index value
    | Stmt.If { cond; then_; else_; _ } ->
      ignore (lint_expr ~push lookup cond);
      walk env loops then_;
      Option.iter (walk env loops) else_
    | Stmt.Let (v, e, body) ->
      let r = lint_expr ~push lookup e in
      walk ((v, r) :: env) loops body
    | Stmt.Alloc (_, body) -> walk env loops body
    | Stmt.For { var; extent; kind; body } ->
      (match kind with
       | (Stmt.Parallel | Stmt.Vectorized | Stmt.Unrolled) when extent > 1 ->
         analyze_loop ~intrin ~outer_env:env ~push kind var extent body
       | _ -> ());
      walk
        ((var, (0, Stdlib.max 0 (extent - 1))) :: env)
        ((var, extent) :: loops)
        body
    | Stmt.Intrin_call { intrin = name; output; inputs = _ } ->
      (match intrin name with
       | Some meta -> check_intrin ~push ~loops ~env_other:lookup name meta output
       | None -> ())
  in
  walk [] [] stmt;
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

let check_stmt ?(intrin = default_intrin) stmt = run ~intrin stmt

let check_func ?(intrin = default_intrin) (func : Lower.func) =
  run ~intrin func.Lower.fn_body
