open Unit_dtype

type init =
  | Zero
  | Init_tensor of Tensor.t
  | In_place

type t = {
  name : string;
  output : Tensor.t;
  spatial : Axis.t list;
  reduce : Axis.t list;
  body : Expr.t;
  init : init;
}

exception Invalid_op of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_op s)) fmt

let validate t =
  let out = t.output in
  List.iter
    (fun (a : Axis.t) ->
      if a.kind <> Axis.Data_parallel then
        invalid "%s: spatial axis %s is not data-parallel" t.name a.name)
    t.spatial;
  List.iter
    (fun (a : Axis.t) ->
      if a.kind <> Axis.Reduction then
        invalid "%s: reduce axis %s is not a reduction" t.name a.name)
    t.reduce;
  let all = t.spatial @ t.reduce in
  let ids = List.map (fun (a : Axis.t) -> a.id) all in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid "%s: repeated axis" t.name;
  if List.length t.spatial <> Tensor.rank out then
    invalid "%s: %d spatial axes for rank-%d output" t.name (List.length t.spatial)
      (Tensor.rank out);
  List.iteri
    (fun dim (a : Axis.t) ->
      if a.extent <> out.shape.(dim) then
        invalid "%s: spatial axis %s extent %d /= output dim %d" t.name a.name a.extent
          out.shape.(dim))
    t.spatial;
  let body_dt = Expr.dtype_of t.body in
  if not (Dtype.equal body_dt out.dtype) then
    invalid "%s: body dtype %s /= output dtype %s" t.name (Dtype.to_string body_dt)
      (Dtype.to_string out.dtype);
  List.iter
    (fun (a : Axis.t) ->
      if not (List.exists (Axis.equal a) all) then
        invalid "%s: body references undeclared axis %s" t.name a.name)
    (Expr.axes_of t.body);
  match t.init with
  | Zero | In_place -> ()
  | Init_tensor c ->
    if not (Dtype.equal c.dtype out.dtype) then
      invalid "%s: init tensor dtype %s /= output dtype %s" t.name
        (Dtype.to_string c.dtype) (Dtype.to_string out.dtype);
    if c.shape <> out.shape then invalid "%s: init tensor shape /= output shape" t.name

let create ?(name = "op") ~output ~spatial ?(reduce = []) ?(init = Zero) body =
  let t = { name; output; spatial; reduce; body; init } in
  validate t;
  t

let inputs t =
  let body_tensors = Expr.tensors_of t.body in
  match t.init with
  | Zero | In_place -> body_tensors
  | Init_tensor c ->
    if List.exists (Tensor.equal c) body_tensors then body_tensors
    else body_tensors @ [ c ]

let all_axes t = t.spatial @ t.reduce

let has_reduction t = t.reduce <> []

let macs t = List.fold_left (fun acc (a : Axis.t) -> acc * a.extent) 1 (all_axes t)

let pp fmt t =
  let pp_axis_decl fmt (a : Axis.t) =
    Format.fprintf fmt "%s = %s(0, %d)" a.name
      (match a.kind with
       | Axis.Data_parallel -> "loop_axis"
       | Axis.Reduction -> "reduce_axis")
      a.extent
  in
  Format.fprintf fmt "@[<v>";
  List.iter (fun tensor -> Format.fprintf fmt "%a@," Tensor.pp tensor) (inputs t);
  Format.fprintf fmt "%a@," Tensor.pp t.output;
  List.iter (fun a -> Format.fprintf fmt "%a@," pp_axis_decl a) (all_axes t);
  let out_index =
    String.concat ", " (List.map (fun (a : Axis.t) -> a.name) t.spatial)
  in
  let body_str =
    if t.reduce = [] then Expr.to_string t.body
    else Printf.sprintf "sum(%s)" (Expr.to_string t.body)
  in
  (match t.init with
   | Zero -> Format.fprintf fmt "%s[%s] += %s" t.output.name out_index body_str
   | In_place -> Format.fprintf fmt "%s[%s] (+)= %s" t.output.name out_index body_str
   | Init_tensor c ->
     Format.fprintf fmt "%s[%s] = %s[%s] + %s" t.output.name out_index c.Tensor.name
       out_index body_str);
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
