type conv2d = {
  c : int;
  h : int;
  w : int;
  k : int;
  kernel : int;
  stride : int;
  padding : int;
  groups : int;
}

type conv3d = {
  w3_c : int;
  w3_d : int;
  w3_h : int;
  w3_w : int;
  w3_k : int;
  w3_kernel : int;
  w3_stride : int;
  w3_padding : int;
}

type dense = {
  d_k : int;
  d_units : int;
}

type t =
  | Conv of conv2d
  | Conv3 of conv3d
  | Fc of dense

let of_node g (n : Graph.node) =
  match n.Graph.kind, List.map (Graph.shape_of g) n.Graph.inputs with
  | Graph.Conv2d a, [ c; h; w ] :: _ ->
    Some
      (Conv
         { c; h; w; k = a.Graph.out_channels; kernel = a.Graph.kernel;
           stride = a.Graph.stride; padding = a.Graph.padding; groups = a.Graph.groups
         })
  | Graph.Conv3d a, [ c; d; h; w ] :: _ ->
    Some
      (Conv3
         { w3_c = c; w3_d = d; w3_h = h; w3_w = w; w3_k = a.Graph.c3_out_channels;
           w3_kernel = a.Graph.c3_kernel; w3_stride = a.Graph.c3_stride;
           w3_padding = a.Graph.c3_padding
         })
  | Graph.Dense { units }, [ k ] :: _ -> Some (Fc { d_k = k; d_units = units })
  | _ -> None

let of_graph g =
  let rec bump wl = function
    | [] -> [ (wl, 1) ]
    | (w, n) :: rest -> if w = wl then (w, n + 1) :: rest else (w, n) :: bump wl rest
  in
  List.fold_left
    (fun acc n -> match of_node g n with Some wl -> bump wl acc | None -> acc)
    [] (Graph.nodes g)

let out_dim size kernel stride padding =
  Graph.conv_out_dim ~size ~kernel ~stride ~padding

let macs = function
  | Conv wl ->
    let oh = out_dim wl.h wl.kernel wl.stride wl.padding in
    let ow = out_dim wl.w wl.kernel wl.stride wl.padding in
    oh * ow * wl.k * (wl.c / wl.groups) * wl.kernel * wl.kernel
  | Conv3 wl ->
    let dim s = out_dim s wl.w3_kernel wl.w3_stride wl.w3_padding in
    dim wl.w3_d * dim wl.w3_h * dim wl.w3_w * wl.w3_k * wl.w3_c
    * wl.w3_kernel * wl.w3_kernel * wl.w3_kernel
  | Fc wl -> wl.d_k * wl.d_units

let name = function
  | Conv wl ->
    Printf.sprintf "conv_c%d_hw%dx%d_k%d_r%d_s%d%s" wl.c wl.h wl.w wl.k wl.kernel
      wl.stride
      (if wl.groups > 1 then Printf.sprintf "_g%d" wl.groups else "")
  | Conv3 wl ->
    Printf.sprintf "conv3d_c%d_dhw%d_k%d_r%d_s%d" wl.w3_c wl.w3_d wl.w3_k wl.w3_kernel
      wl.w3_stride
  | Fc wl -> Printf.sprintf "dense_k%d_u%d" wl.d_k wl.d_units

let pad_to n ~multiple = (n + multiple - 1) / multiple * multiple

let conv_spec ~lanes ~reduce_width wl =
  if wl.groups <> 1 then
    invalid_arg "Workload.conv_spec: grouped convolutions do not tensorize";
  { Unit_dsl.Op_library.in_channels = pad_to wl.c ~multiple:reduce_width;
    in_height = wl.h + (2 * wl.padding);
    in_width = wl.w + (2 * wl.padding);
    out_channels = pad_to wl.k ~multiple:lanes;
    kernel = wl.kernel;
    stride = wl.stride
  }

let conv_op ~data_dtype ~weight_dtype ~lanes ~reduce_width wl =
  Unit_dsl.Op_library.conv2d_nchwc ~name:(name (Conv wl)) ~data_dtype ~weight_dtype
    ~acc_dtype:Unit_dtype.Dtype.I32 ~lanes ~reduce_width
    (conv_spec ~lanes ~reduce_width wl)

let conv3d_op ~data_dtype ~weight_dtype ~lanes ~reduce_width wl =
  Unit_dsl.Op_library.conv3d_ncdhwc ~name:(name (Conv3 wl)) ~data_dtype ~weight_dtype
    ~acc_dtype:Unit_dtype.Dtype.I32 ~lanes ~reduce_width
    { Unit_dsl.Op_library.c3_in_channels = pad_to wl.w3_c ~multiple:reduce_width;
      c3_in_depth = wl.w3_d + (2 * wl.w3_padding);
      c3_in_height = wl.w3_h + (2 * wl.w3_padding);
      c3_in_width = wl.w3_w + (2 * wl.w3_padding);
      c3_out_channels = pad_to wl.w3_k ~multiple:lanes;
      c3_kernel = wl.w3_kernel;
      c3_stride = wl.w3_stride
    }

let dense_op ~data_dtype ~weight_dtype ~lanes ~reduce_width wl =
  Unit_dsl.Op_library.dense ~name:(name (Fc wl)) ~a_dtype:data_dtype
    ~b_dtype:weight_dtype ~acc_dtype:Unit_dtype.Dtype.I32
    ~m:(pad_to wl.d_units ~multiple:lanes)
    ~k:(pad_to wl.d_k ~multiple:reduce_width)
    ()
