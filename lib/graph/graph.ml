open Unit_dtype

type id = int

type pool_kind =
  | Max_pool
  | Avg_pool

type conv2d_attrs = {
  out_channels : int;
  kernel : int;
  stride : int;
  padding : int;
  groups : int;
}

type conv3d_attrs = {
  c3_out_channels : int;
  c3_kernel : int;
  c3_stride : int;
  c3_padding : int;
}

type kind =
  | Input of { shape : int list; dtype : Dtype.t }
  | Weight of { shape : int list; dtype : Dtype.t }
  | Conv2d of conv2d_attrs
  | Conv3d of conv3d_attrs
  | Dense of { units : int }
  | Bias_add
  | Relu
  | Clip of { lo : float; hi : float }
  | Add
  | Pool of { pool : pool_kind; window : int; stride : int; padding : int }
  | Global_avg_pool
  | Flatten
  | Concat
  | Softmax
  | Quantize of { scale : float; dtype : Dtype.t }
  | Dequantize of { scale : float }

type node = {
  id : id;
  name : string;
  kind : kind;
  inputs : id list;
  fused : kind list;
}

type t = {
  g_nodes : node array;  (** index = id; topological by construction *)
  g_output : id;
  g_shapes : (int list * Dtype.t) array;
}

exception Graph_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Graph_error s)) fmt

let conv_out_dim ~size ~kernel ~stride ~padding =
  if size + (2 * padding) < kernel then 0 else ((size + (2 * padding) - kernel) / stride) + 1

let kind_name = function
  | Input _ -> "input"
  | Weight _ -> "weight"
  | Conv2d _ -> "conv2d"
  | Conv3d _ -> "conv3d"
  | Dense _ -> "dense"
  | Bias_add -> "bias_add"
  | Relu -> "relu"
  | Clip _ -> "clip"
  | Add -> "add"
  | Pool { pool = Max_pool; _ } -> "max_pool"
  | Pool { pool = Avg_pool; _ } -> "avg_pool"
  | Global_avg_pool -> "global_avg_pool"
  | Flatten -> "flatten"
  | Concat -> "concat"
  | Softmax -> "softmax"
  | Quantize _ -> "quantize"
  | Dequantize _ -> "dequantize"

let base_arity = function
  | Input _ | Weight _ -> 0
  | Conv2d _ | Conv3d _ | Dense _ | Bias_add | Add -> 2
  | Relu | Clip _ | Pool _ | Global_avg_pool | Flatten | Softmax | Quantize _
  | Dequantize _ -> 1
  | Concat -> -1 (* variadic *)

(* Shape and dtype inference for one node given its input signatures.
   Signatures beyond the kind's own arity belong to fused epilogues (e.g.
   a folded Bias_add brings its bias weight along). *)
let infer_node node all_sigs =
  let own_arity = base_arity node.kind in
  let input_sigs, extra_sigs =
    if own_arity < 0 then (all_sigs, [])
    else begin
      let rec split i xs =
        if i = 0 then ([], xs)
        else
          match xs with
          | [] -> ([], [])
          | x :: rest ->
            let a, b = split (i - 1) rest in
            (x :: a, b)
      in
      split own_arity all_sigs
    end
  in
  let expected_extras =
    List.fold_left
      (fun acc k -> acc + Stdlib.max 0 (base_arity k - 1))
      0 node.fused
  in
  if List.length extra_sigs <> expected_extras then
    error "%s: %d extra inputs for fused epilogues, expected %d" node.name
      (List.length extra_sigs) expected_extras;
  let expect_arity n =
    if List.length input_sigs <> n then
      error "%s (%s): expected %d inputs, got %d" node.name (kind_name node.kind) n
        (List.length input_sigs)
  in
  let base =
    match node.kind, input_sigs with
    | Input { shape; dtype }, [] -> (shape, dtype)
    | Input _, _ :: _ -> error "%s: input node with inputs" node.name
    | Weight { shape; dtype }, [] -> (shape, dtype)
    | Weight _, _ :: _ -> error "%s: weight node with inputs" node.name
    | Conv2d attrs, [ ([ c; h; w ], data_dt); (wshape, _) ] ->
      if c mod attrs.groups <> 0 || attrs.out_channels mod attrs.groups <> 0 then
        error "%s: groups %d does not divide channels" node.name attrs.groups;
      (match wshape with
       | [ o; i; kh; kw ] ->
         if o <> attrs.out_channels || i <> c / attrs.groups || kh <> attrs.kernel
            || kw <> attrs.kernel
         then error "%s: weight shape mismatch" node.name
       | _ -> error "%s: conv2d weight must be rank 4" node.name);
      let oh = conv_out_dim ~size:h ~kernel:attrs.kernel ~stride:attrs.stride ~padding:attrs.padding in
      let ow = conv_out_dim ~size:w ~kernel:attrs.kernel ~stride:attrs.stride ~padding:attrs.padding in
      if oh <= 0 || ow <= 0 then error "%s: non-positive output size" node.name;
      let out_dt = if Dtype.is_float data_dt then data_dt else Dtype.I32 in
      ([ attrs.out_channels; oh; ow ], out_dt)
    | Conv2d _, _ -> error "%s: conv2d expects (data, weight) with rank-3 data" node.name
    | Conv3d attrs, [ ([ c; d; h; w ], data_dt); (wshape, _) ] ->
      (match wshape with
       | [ o; i; kd; kh; kw ] ->
         if o <> attrs.c3_out_channels || i <> c || kd <> attrs.c3_kernel
            || kh <> attrs.c3_kernel || kw <> attrs.c3_kernel
         then error "%s: conv3d weight shape mismatch" node.name
       | _ -> error "%s: conv3d weight must be rank 5" node.name);
      let dim size =
        conv_out_dim ~size ~kernel:attrs.c3_kernel ~stride:attrs.c3_stride
          ~padding:attrs.c3_padding
      in
      let out_dt = if Dtype.is_float data_dt then data_dt else Dtype.I32 in
      ([ attrs.c3_out_channels; dim d; dim h; dim w ], out_dt)
    | Conv3d _, _ -> error "%s: conv3d expects (data, weight) with rank-4 data" node.name
    | Dense { units }, [ ([ k ], data_dt); ([ u; k' ], _) ] ->
      if u <> units || k' <> k then error "%s: dense weight shape mismatch" node.name;
      let out_dt = if Dtype.is_float data_dt then data_dt else Dtype.I32 in
      ([ units ], out_dt)
    | Dense _, _ -> error "%s: dense expects rank-1 data and rank-2 weight" node.name
    | Bias_add, [ (shape, dt); ([ b ], _) ] ->
      (match shape with
       | c :: _ when c = b -> (shape, dt)
       | [ u ] when u = b -> (shape, dt)
       | _ -> error "%s: bias length mismatch" node.name)
    | Bias_add, _ -> error "%s: bias_add expects (data, bias)" node.name
    | (Relu | Clip _), [ (shape, dt) ] -> (shape, dt)
    | (Relu | Clip _), _ ->
      expect_arity 1;
      assert false
    | Add, [ (s1, d1); (s2, d2) ] ->
      if s1 <> s2 || not (Dtype.equal d1 d2) then
        error "%s: add operand mismatch" node.name;
      (s1, d1)
    | Add, _ ->
      expect_arity 2;
      assert false
    | Pool { window; stride; padding; _ }, [ ([ c; h; w ], dt) ] ->
      ( [ c;
          conv_out_dim ~size:h ~kernel:window ~stride ~padding;
          conv_out_dim ~size:w ~kernel:window ~stride ~padding
        ],
        dt )
    | Pool _, _ -> error "%s: pool expects rank-3 data" node.name
    | Global_avg_pool, [ (c :: _, dt) ] -> ([ c ], dt)
    | Global_avg_pool, _ -> error "%s: global_avg_pool expects one input" node.name
    | Flatten, [ (shape, dt) ] -> ([ List.fold_left ( * ) 1 shape ], dt)
    | Flatten, _ ->
      expect_arity 1;
      assert false
    | Concat, (((_ :: spatial), dt) :: rest) ->
      let channels =
        List.fold_left
          (fun acc (shape, dt') ->
            match shape with
            | c :: spatial' when spatial' = spatial && Dtype.equal dt dt' -> acc + c
            | _ -> error "%s: concat operand mismatch" node.name)
          (match List.hd input_sigs with c :: _, _ -> c | _ -> 0)
          rest
      in
      (channels :: spatial, dt)
    | Concat, _ -> error "%s: concat expects channel-led inputs" node.name
    | Softmax, [ ([ n ], dt) ] -> ([ n ], dt)
    | Softmax, _ -> error "%s: softmax expects rank-1 data" node.name
    | Quantize { dtype; _ }, [ (shape, _) ] -> (shape, dtype)
    | Quantize _, _ ->
      expect_arity 1;
      assert false
    | Dequantize _, [ (shape, _) ] -> (shape, Dtype.F32)
    | Dequantize _, _ ->
      expect_arity 1;
      assert false
  in
  (* fused epilogues can change the dtype (a fused Quantize narrows) *)
  List.fold_left
    (fun (shape, dt) fused_kind ->
      match fused_kind with
      | Quantize { dtype; _ } -> (shape, dtype)
      | Dequantize _ -> (shape, Dtype.F32)
      | Bias_add | Relu | Clip _ | Add -> (shape, dt)
      | k -> error "%s: kind %s cannot be fused" node.name (kind_name k))
    base node.fused

let build_graph nodes output =
  let arr = Array.of_list nodes in
  Array.iteri
    (fun idx (n : node) ->
      if n.id <> idx then error "node ids must be dense and topological";
      List.iter
        (fun i -> if i < 0 || i >= idx then error "%s: input %d not topological" n.name i)
        n.inputs)
    arr;
  if output < 0 || output >= Array.length arr then error "output id out of range";
  let shapes = Array.make (Array.length arr) ([], Dtype.F32) in
  Array.iteri
    (fun idx n ->
      let input_sigs = List.map (fun i -> shapes.(i)) n.inputs in
      shapes.(idx) <- infer_node n input_sigs)
    arr;
  { g_nodes = arr; g_output = output; g_shapes = shapes }

let nodes t = Array.to_list t.g_nodes
let output t = t.g_output
let arity t = Array.length t.g_nodes

let node t id =
  if id < 0 || id >= Array.length t.g_nodes then error "node id %d out of range" id;
  t.g_nodes.(id)

let shape_of t id = fst t.g_shapes.(id)
let dtype_of t id = snd t.g_shapes.(id)

let build descriptions ~output =
  let nodes =
    List.mapi
      (fun id (name, kind, inputs, fused) -> { id; name; kind; inputs; fused })
      descriptions
  in
  build_graph nodes output

let infer kind ~fused input_sigs =
  infer_node { id = 0; name = "<infer>"; kind; inputs = []; fused } input_sigs

module Builder = struct
  type graph = t

  type b = {
    mutable rev_nodes : node list;
    mutable next : int;
    shapes : (int, int list * Dtype.t) Hashtbl.t;
  }

  let create () = { rev_nodes = []; next = 0; shapes = Hashtbl.create 64 }

  let signature b id =
    match Hashtbl.find_opt b.shapes id with
    | Some s -> s
    | None -> error "builder: unknown node id %d" id

  let add_node b ?name kind inputs =
    let id = b.next in
    let name =
      match name with Some n -> n | None -> Printf.sprintf "%s_%d" (kind_name kind) id
    in
    let node = { id; name; kind; inputs; fused = [] } in
    Hashtbl.replace b.shapes id (infer_node node (List.map (signature b) inputs));
    b.next <- id + 1;
    b.rev_nodes <- node :: b.rev_nodes;
    id

  let input b ?name ~shape dtype = add_node b ?name (Input { shape; dtype }) []
  let weight b ?name ~shape dtype = add_node b ?name (Weight { shape; dtype }) []

  let channels_of b id =
    match signature b id with
    | c :: _, _ -> c
    | [], _ -> error "builder: node %d has an empty shape" id

  let conv2d b ?name ?(groups = 1) ?(padding = 0) ?(stride = 1) ~channels ~kernel data =
    let in_channels = channels_of b data in
    let w =
      weight b ~shape:[ channels; in_channels / groups; kernel; kernel ] Dtype.F32
    in
    add_node b ?name
      (Conv2d { out_channels = channels; kernel; stride; padding; groups })
      [ data; w ]

  let conv3d b ?name ?(padding = 0) ?(stride = 1) ~channels ~kernel data =
    let in_channels = channels_of b data in
    let w = weight b ~shape:[ channels; in_channels; kernel; kernel; kernel ] Dtype.F32 in
    add_node b ?name
      (Conv3d
         { c3_out_channels = channels; c3_kernel = kernel; c3_stride = stride;
           c3_padding = padding })
      [ data; w ]

  let dense b ?name ~units data =
    let k =
      match signature b data with
      | [ k ], _ -> k
      | _ -> error "dense: input must be rank 1 (flatten first)"
    in
    let w = weight b ~shape:[ units; k ] Dtype.F32 in
    add_node b ?name (Dense { units }) [ data; w ]

  let bias_add b data =
    let bias = weight b ~shape:[ channels_of b data ] Dtype.F32 in
    add_node b Bias_add [ data; bias ]

  let relu b data = add_node b Relu [ data ]
  let relu6 b data = add_node b (Clip { lo = 0.0; hi = 6.0 }) [ data ]
  let add b x y = add_node b Add [ x; y ]

  let max_pool b ?(padding = 0) ~window ~stride data =
    add_node b (Pool { pool = Max_pool; window; stride; padding }) [ data ]

  let avg_pool b ?(padding = 0) ~window ~stride data =
    add_node b (Pool { pool = Avg_pool; window; stride; padding }) [ data ]

  let global_avg_pool b data = add_node b Global_avg_pool [ data ]
  let flatten b data = add_node b Flatten [ data ]

  let concat b inputs =
    if inputs = [] then error "concat: no inputs";
    add_node b Concat inputs

  let softmax b data = add_node b Softmax [ data ]

  let finish b out = build_graph (List.rev b.rev_nodes) out
end

let pp_node fmt (n : node) =
  Format.fprintf fmt "%d:%s(%s)%s <- [%s]" n.id n.name (kind_name n.kind)
    (if n.fused = [] then ""
     else "+" ^ String.concat "+" (List.map kind_name n.fused))
    (String.concat ", " (List.map string_of_int n.inputs))

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter (fun n -> Format.fprintf fmt "%a@," pp_node n) (nodes t);
  Format.fprintf fmt "output: %d@]" t.g_output
