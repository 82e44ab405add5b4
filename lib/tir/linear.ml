open Texpr

let occurs v e =
  let rec go found e =
    found || match e with Var w -> Var.equal v w | e -> fold_children go false e
  in
  go false e

let is_independent_of e v = not (occurs v e)

let rec coefficient_of e v =
  match e with
  | Imm _ -> Some 0
  | Var w -> Some (if Var.equal v w then 1 else 0)
  | Cast (dt, a) when Unit_dtype.Dtype.is_integer dt -> coefficient_of a v
  | Binop (Add, a, b) ->
    (match coefficient_of a v, coefficient_of b v with
     | Some x, Some y -> Some (x + y)
     | _ -> None)
  | Binop (Sub, a, b) ->
    (match coefficient_of a v, coefficient_of b v with
     | Some x, Some y -> Some (x - y)
     | _ -> None)
  | Binop (Mul, a, b) ->
    (match coefficient_of a v, coefficient_of b v, as_const_int a, as_const_int b with
     | Some 0, Some 0, _, _ -> Some 0
     | Some ca, Some 0, _, Some cb -> Some (ca * cb)
     | Some 0, Some cb, Some ca, _ -> Some (ca * cb)
     | _ -> None)
  | Binop ((Div | Mod | Min | Max), a, b) ->
    if is_independent_of a v && is_independent_of b v then Some 0 else None
  | Load _ | Cmp _ | And _ | Or _ | Not _ | Select _ | Cast _ ->
    if is_independent_of e v then Some 0 else None

let cap = 1 lsl 30

(* [dt]'s value range clamped to ±cap (the I32 and I64 ranges contain
   it), as native ints; [(1, 0)], empty, for float dtypes *)
let clamped_range (dt : Unit_dtype.Dtype.t) =
  match dt with
  | Bool -> (0, 1)
  | U8 -> (0, 255)
  | I8 -> (-128, 127)
  | I16 -> (-32768, 32767)
  | I32 | I64 -> (-cap, cap)
  | F16 | Bf16 | F32 | F64 -> (1, 0)

let fit dt ((lo, hi) as iv) =
  let dlo, dhi = clamped_range dt in
  if dlo <= lo && lo <= hi && hi <= dhi then Some iv else None

let in_bounds ~size = function Some (lo, hi) -> lo >= 0 && hi < size | None -> false

let binop_bounds dt op l1 h1 l2 h2 =
  match op with
  | Add -> fit dt (l1 + l2, h1 + h2)
  | Sub -> fit dt (l1 - h2, h1 - l2)
  | Mul ->
    (* operands are within 2^30, so no product overflows *)
    let p1 = l1 * l2 and p2 = l1 * h2 and p3 = h1 * l2 and p4 = h1 * h2 in
    fit dt
      ( Stdlib.min (Stdlib.min p1 p2) (Stdlib.min p3 p4),
        Stdlib.max (Stdlib.max p1 p2) (Stdlib.max p3 p4) )
  | Div ->
    (* truncating division is monotone for a constant positive divisor *)
    if l2 = h2 && l2 > 0 then fit dt (l1 / l2, h1 / l2) else None
  | Mod ->
    if l2 = h2 && l2 > 0 && l1 >= 0 then fit dt (0, Stdlib.min h1 (l2 - 1)) else None
  | Min -> fit dt (Stdlib.min l1 l2, Stdlib.min h1 h2)
  | Max -> fit dt (Stdlib.max l1 l2, Stdlib.max h1 h2)

(* A rule per node, so the recursion is written out rather than on
   [Texpr.fold_children]. *)
let bounds ?(load = fun _ -> None) ~env e =
  let rec go e =
    match e with
    | Imm (Unit_dtype.Value.Int (dt, x)) ->
      let xi = Int64.to_int x in
      if Int64.equal (Int64.of_int xi) x then fit dt (xi, xi) else None
    | Imm (Unit_dtype.Value.Float _) -> None
    | Var v -> (match env v with Some iv -> fit v.Var.dtype iv | None -> None)
    | Load (b, _) -> (match load b with Some iv -> fit b.Buffer.dtype iv | None -> None)
    | Cmp _ | And _ | Or _ | Not _ -> Some (0, 1)
    | Cast (dt, a) -> (match go a with Some iv -> fit dt iv | None -> None)
    | Select (_, a, b) ->
      (match go a, go b with
       | Some (l1, h1), Some (l2, h2) ->
         fit (dtype_of e) (Stdlib.min l1 l2, Stdlib.max h1 h2)
       | _ -> None)
    | Binop (op, a, b) ->
      (match go a with
       | None -> None
       | Some (l1, h1) ->
         (match go b with
          | None -> None
          | Some (l2, h2) -> binop_bounds (dtype_of e) op l1 h1 l2 h2))
  in
  go e

let substitute_zero vars e =
  Texpr.substitute (List.map (fun v -> (v, Texpr.int_imm 0)) vars) e
