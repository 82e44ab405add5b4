open Unit_dtype

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max

type t =
  | Imm of Value.t
  | Axis_ref of Axis.t
  | Access of Tensor.t * t list
  | Cast of Dtype.t * t
  | Binop of binop * t * t
  | Neg of t

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let rec dtype_of = function
  | Imm v -> Value.dtype v
  | Axis_ref _ -> Dtype.I32
  | Access (t, _) -> t.Tensor.dtype
  | Cast (dt, _) -> dt
  | Binop (_, a, _) -> dtype_of a
  | Neg a -> dtype_of a

let imm v = Imm v

let int_imm ?(dtype = Dtype.I32) x = Imm (Value.of_int dtype x)
let float_imm ?(dtype = Dtype.F32) x = Imm (Value.of_float dtype x)

let axis a = Axis_ref a

let access tensor indices =
  let rank = Tensor.rank tensor in
  if List.length indices <> rank then
    type_error "access %s: %d indices for rank-%d tensor" tensor.Tensor.name
      (List.length indices) rank;
  List.iter
    (fun ix ->
      if not (Dtype.is_integer (dtype_of ix)) then
        type_error "access %s: non-integer index" tensor.Tensor.name)
    indices;
  Access (tensor, indices)

let cast dt e = if Dtype.equal dt (dtype_of e) then e else Cast (dt, e)

let binop op a b =
  let da = dtype_of a and db = dtype_of b in
  if not (Dtype.equal da db) then
    type_error "binop: operand dtypes differ (%s vs %s)" (Dtype.to_string da)
      (Dtype.to_string db);
  Binop (op, a, b)

let add a b = binop Add a b
let sub a b = binop Sub a b
let mul a b = binop Mul a b
let div a b = binop Div a b
let mod_ a b = binop Mod a b
let min_ a b = binop Min a b
let max_ a b = binop Max a b
let neg a = Neg a

let ( + ) = add
let ( - ) = sub
let ( * ) = mul

let map_children f e =
  match e with
  | Imm _ | Axis_ref _ -> e
  | Access (t, indices) -> access t (List.map f indices)
  | Cast (dt, a) -> cast dt (f a)
  | Binop (op, a, b) -> binop op (f a) (f b)
  | Neg a -> neg (f a)

let fold_children f acc e =
  match e with
  | Imm _ | Axis_ref _ -> acc
  | Access (_, indices) -> List.fold_left f acc indices
  | Cast (_, a) | Neg a -> f acc a
  | Binop (_, a, b) -> f (f acc a) b

let axes_of e =
  let rec go acc = function
    | Axis_ref a -> if List.exists (Axis.equal a) acc then acc else a :: acc
    | e -> fold_children go acc e
  in
  List.rev (go [] e)

(* indices may themselves contain accesses in principle; walk fully *)
let tensors_of e =
  let rec go acc = function
    | Access (t, _) as e ->
      fold_children go (if List.exists (Tensor.equal t) acc then acc else t :: acc) e
    | e -> fold_children go acc e
  in
  List.rev (go [] e)

let accesses_of e =
  let rec go acc = function
    | Access (t, indices) as e -> fold_children go ((t, indices) :: acc) e
    | e -> fold_children go acc e
  in
  List.rev (go [] e)

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"

let rec eval ~env ~load e =
  match e with
  | Imm v -> v
  | Axis_ref a -> Value.of_int Dtype.I32 (env a)
  | Access (t, indices) ->
    let idx =
      Array.of_list
        (List.map (fun ix -> Int64.to_int (Value.to_int64 (eval ~env ~load ix))) indices)
    in
    load t idx
  | Cast (dt, e) -> Value.cast dt (eval ~env ~load e)
  | Neg e -> Value.neg (eval ~env ~load e)
  | Binop (op, a, b) ->
    let va = eval ~env ~load a and vb = eval ~env ~load b in
    let f =
      match op with
      | Add -> Value.add
      | Sub -> Value.sub
      | Mul -> Value.mul
      | Div -> Value.div
      | Mod -> Value.rem
      | Min -> Value.min
      | Max -> Value.max
    in
    f va vb

let substitute_axes bindings e =
  let rec go = function
    | Axis_ref a as node ->
      (match List.find_opt (fun (b, _) -> Axis.equal a b) bindings with
       | Some (_, replacement) -> replacement
       | None -> node)
    | e -> map_children go e
  in
  go e

(* [equal_structural] and [pp] have a rule per node pair or node, so they
   match on the nodes themselves rather than use the traversals above. *)
let rec equal_structural a b =
  match a, b with
  | Imm x, Imm y -> Value.equal x y
  | Axis_ref x, Axis_ref y -> Axis.equal x y
  | Access (t, ix), Access (u, iy) ->
    Tensor.equal t u
    && List.length ix = List.length iy
    && List.for_all2 equal_structural ix iy
  | Cast (dt, x), Cast (du, y) -> Dtype.equal dt du && equal_structural x y
  | Neg x, Neg y -> equal_structural x y
  | Binop (op, x1, x2), Binop (oq, y1, y2) ->
    op = oq && equal_structural x1 y1 && equal_structural x2 y2
  | (Imm _ | Axis_ref _ | Access _ | Cast _ | Neg _ | Binop _), _ -> false

let rec pp fmt = function
  | Imm v -> Value.pp fmt v
  | Axis_ref a -> Format.pp_print_string fmt a.Axis.name
  | Access (t, indices) ->
    Format.fprintf fmt "%s[%a]" t.Tensor.name
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp)
      indices
  | Cast (dt, e) -> Format.fprintf fmt "%s(%a)" (Dtype.to_string dt) pp e
  | Neg e -> Format.fprintf fmt "-(%a)" pp e
  | Binop ((Min | Max) as op, a, b) ->
    Format.fprintf fmt "%s(%a, %a)" (binop_to_string op) pp a pp b
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp a (binop_to_string op) pp b

let to_string e = Format.asprintf "%a" pp e
