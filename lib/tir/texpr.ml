open Unit_dtype

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max

type cmp =
  | Lt
  | Le
  | Eq
  | Ne

type t =
  | Imm of Value.t
  | Var of Var.t
  | Load of Buffer.t * t
  | Binop of binop * t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Cast of Dtype.t * t
  | Select of t * t * t

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let rec dtype_of = function
  | Imm v -> Value.dtype v
  | Var v -> v.Var.dtype
  | Load (b, _) -> b.Buffer.dtype
  | Binop (_, a, _) -> dtype_of a
  | Cmp _ | And _ | Or _ | Not _ -> Dtype.Bool
  | Cast (dt, _) -> dt
  | Select (_, a, _) -> dtype_of a

let imm v = Imm v
let int_imm ?(dtype = Dtype.I32) x = Imm (Value.of_int dtype x)
let float_imm ?(dtype = Dtype.F32) x = Imm (Value.of_float dtype x)
let var v = Var v

let load buf index =
  if not (Dtype.is_integer (dtype_of index)) then
    type_error "load %s: non-integer index" buf.Buffer.name;
  Load (buf, index)

let value_op = function
  | Add -> Value.add
  | Sub -> Value.sub
  | Mul -> Value.mul
  | Div -> Value.div
  | Mod -> Value.rem
  | Min -> Value.min
  | Max -> Value.max

let is_zero = function
  | Imm v -> Value.compare_num v (Value.zero (Value.dtype v)) = 0
  | _ -> false

let is_one = function
  | Imm v -> Value.compare_num v (Value.one (Value.dtype v)) = 0
  | _ -> false

let binop op a b =
  let da = dtype_of a and db = dtype_of b in
  if not (Dtype.equal da db) then
    type_error "binop %s: dtype mismatch (%s vs %s)"
      (match op with
       | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
       | Min -> "min" | Max -> "max")
      (Dtype.to_string da) (Dtype.to_string db);
  match op, a, b with
  | _, Imm x, Imm y -> Imm (value_op op x y)
  | Add, x, y when is_zero x -> y
  | Add, x, y when is_zero y -> x
  | Sub, x, y when is_zero y -> x
  | Mul, x, _ when is_zero x -> a
  | Mul, _, y when is_zero y -> b
  | Mul, x, y when is_one x -> y
  | Mul, x, y when is_one y -> x
  | Div, x, y when is_one y -> x
  | Div, x, _ when is_zero x -> a
  | Mod, _, y when is_one y -> Imm (Value.zero da)
  | _ -> Binop (op, a, b)

let add a b = binop Add a b
let sub a b = binop Sub a b
let mul a b = binop Mul a b
let div a b = binop Div a b
let mod_ a b = binop Mod a b
let min_ a b = binop Min a b
let max_ a b = binop Max a b

let cmp c a b =
  let da = dtype_of a and db = dtype_of b in
  if not (Dtype.equal da db) then
    type_error "cmp: dtype mismatch (%s vs %s)" (Dtype.to_string da) (Dtype.to_string db);
  match a, b with
  | Imm x, Imm y ->
    let r = Value.compare_num x y in
    let truth = match c with Lt -> r < 0 | Le -> r <= 0 | Eq -> r = 0 | Ne -> r <> 0 in
    Imm (Value.of_int Dtype.Bool (if truth then 1 else 0))
  | _ -> Cmp (c, a, b)

let bool_imm b = Imm (Value.of_int Dtype.Bool (if b then 1 else 0))

let as_bool = function
  | Imm v when Dtype.equal (Value.dtype v) Dtype.Bool -> Some (Value.to_int64 v <> 0L)
  | _ -> None

let and_ a b =
  match as_bool a, as_bool b with
  | Some false, _ | _, Some false -> bool_imm false
  | Some true, _ -> b
  | _, Some true -> a
  | None, None -> And (a, b)

let or_ a b =
  match as_bool a, as_bool b with
  | Some true, _ | _, Some true -> bool_imm true
  | Some false, _ -> b
  | _, Some false -> a
  | None, None -> Or (a, b)

let not_ a = match as_bool a with Some x -> bool_imm (not x) | None -> Not a

let cast dt e =
  if Dtype.equal dt (dtype_of e) then e
  else match e with Imm v -> Imm (Value.cast dt v) | _ -> Cast (dt, e)

let select c a b =
  if not (Dtype.equal (dtype_of a) (dtype_of b)) then
    type_error "select: branch dtype mismatch";
  match as_bool c with Some true -> a | Some false -> b | None -> Select (c, a, b)

let map_children f e =
  match e with
  | Imm _ | Var _ -> e
  | Load (b, ix) -> load b (f ix)
  | Binop (op, a, b) -> binop op (f a) (f b)
  | Cmp (c, a, b) -> cmp c (f a) (f b)
  | And (a, b) -> and_ (f a) (f b)
  | Or (a, b) -> or_ (f a) (f b)
  | Not a -> not_ (f a)
  | Cast (dt, a) -> cast dt (f a)
  | Select (c, a, b) -> select (f c) (f a) (f b)

let fold_children f acc e =
  match e with
  | Imm _ | Var _ -> acc
  | Load (_, a) | Not a | Cast (_, a) -> f acc a
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) -> f (f acc a) b
  | Select (c, a, b) -> f (f (f acc c) a) b

let vars_of e =
  let rec go acc = function
    | Var v -> if List.exists (Var.equal v) acc then acc else v :: acc
    | e -> fold_children go acc e
  in
  List.rev (go [] e)

let loads_of e =
  let rec go acc = function
    | Load (b, ix) -> go ((b, ix) :: acc) ix
    | e -> fold_children go acc e
  in
  List.rev (go [] e)

let substitute bindings e =
  let rec go = function
    | Var v as node ->
      (match List.find_opt (fun (w, _) -> Var.equal v w) bindings with
       | Some (_, r) -> r
       | None -> node)
    | e -> map_children go e
  in
  go e

let as_const_int = function
  | Imm v when Dtype.is_integer (Value.dtype v) -> Some (Int64.to_int (Value.to_int64 v))
  | _ -> None

(* [equal_structural] and [pp] have a rule per node pair or node, so they
   match on the nodes themselves rather than use the traversals above. *)
let rec equal_structural a b =
  match a, b with
  | Imm x, Imm y -> Value.equal x y
  | Var x, Var y -> Var.equal x y
  | Load (bx, ix), Load (by, iy) -> Buffer.equal bx by && equal_structural ix iy
  | Binop (o, x1, x2), Binop (p, y1, y2) ->
    o = p && equal_structural x1 y1 && equal_structural x2 y2
  | Cmp (o, x1, x2), Cmp (p, y1, y2) ->
    o = p && equal_structural x1 y1 && equal_structural x2 y2
  | And (x1, x2), And (y1, y2) | Or (x1, x2), Or (y1, y2) ->
    equal_structural x1 y1 && equal_structural x2 y2
  | Not x, Not y -> equal_structural x y
  | Cast (dt, x), Cast (du, y) -> Dtype.equal dt du && equal_structural x y
  | Select (c1, x1, x2), Select (c2, y1, y2) ->
    equal_structural c1 c2 && equal_structural x1 y1 && equal_structural x2 y2
  | (Imm _ | Var _ | Load _ | Binop _ | Cmp _ | And _ | Or _ | Not _ | Cast _ | Select _), _
    -> false

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"

let cmp_symbol = function Lt -> "<" | Le -> "<=" | Eq -> "==" | Ne -> "!="

let rec pp fmt = function
  | Imm v -> Value.pp fmt v
  | Var v -> Var.pp fmt v
  | Load (b, ix) -> Format.fprintf fmt "%s[%a]" b.Buffer.name pp ix
  | Binop ((Min | Max) as op, a, b) ->
    Format.fprintf fmt "%s(%a, %a)" (binop_symbol op) pp a pp b
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp a (binop_symbol op) pp b
  | Cmp (c, a, b) -> Format.fprintf fmt "(%a %s %a)" pp a (cmp_symbol c) pp b
  | And (a, b) -> Format.fprintf fmt "(%a && %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a || %a)" pp a pp b
  | Not a -> Format.fprintf fmt "!(%a)" pp a
  | Cast (dt, a) -> Format.fprintf fmt "%s(%a)" (Dtype.to_string dt) pp a
  | Select (c, a, b) -> Format.fprintf fmt "select(%a, %a, %a)" pp c pp a pp b

let to_string e = Format.asprintf "%a" pp e
