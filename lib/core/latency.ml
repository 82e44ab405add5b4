open Unit_graph

type engine = {
  e_name : string;
  e_conv : Workload.conv2d -> float;
  e_depthwise : Workload.conv2d -> float;
  e_conv3d : Workload.conv3d -> float;
  e_dense : Workload.dense -> float;
  e_elementwise_bw : float;
  e_node_overhead : float;
}

type breakdown = {
  b_conv : float;
  b_depthwise : float;
  b_dense : float;
  b_elementwise : float;
  b_overhead : float;
}

let zero =
  { b_conv = 0.0; b_depthwise = 0.0; b_dense = 0.0; b_elementwise = 0.0;
    b_overhead = 0.0 }

let breakdown_total b =
  b.b_conv +. b.b_depthwise +. b.b_dense +. b.b_elementwise +. b.b_overhead

let elems g id = List.fold_left ( * ) 1 (Graph.shape_of g id)

(* One node's share of the model: its dispatch overhead plus its
   operator's time, in the bucket the operator belongs to.  Inputs and
   weights cost nothing. *)
let node_breakdown engine g (n : Graph.node) =
  let node = { zero with b_overhead = engine.e_node_overhead } in
  match n.Graph.kind, Workload.of_node g n with
  | (Graph.Input _ | Graph.Weight _), _ -> zero
  | _, Some (Workload.Conv wl) when wl.Workload.groups > 1 ->
    { node with b_depthwise = engine.e_depthwise wl }
  | _, Some (Workload.Conv wl) -> { node with b_conv = engine.e_conv wl }
  | _, Some (Workload.Conv3 wl) -> { node with b_conv = engine.e_conv3d wl }
  | _, Some (Workload.Fc wl) -> { node with b_dense = engine.e_dense wl }
  | (Graph.Conv2d _ | Graph.Conv3d _ | Graph.Dense _), None -> node
  | ( Graph.Bias_add | Graph.Relu | Graph.Clip _ | Graph.Add | Graph.Pool _
    | Graph.Global_avg_pool | Graph.Flatten | Graph.Concat | Graph.Softmax
    | Graph.Quantize _ | Graph.Dequantize _ ), None ->
    let bytes i = elems g i * Unit_dtype.Dtype.bytes (Graph.dtype_of g i) in
    let moved =
      List.fold_left (fun total i -> total + bytes i) (bytes n.Graph.id) n.Graph.inputs
    in
    { node with b_elementwise = Float.of_int moved /. engine.e_elementwise_bw }

let node_seconds engine g n = breakdown_total (node_breakdown engine g n)

let latency_breakdown engine g =
  List.fold_left
    (fun a n ->
      let b = node_breakdown engine g n in
      { b_conv = a.b_conv +. b.b_conv;
        b_depthwise = a.b_depthwise +. b.b_depthwise;
        b_dense = a.b_dense +. b.b_dense;
        b_elementwise = a.b_elementwise +. b.b_elementwise;
        b_overhead = a.b_overhead +. b.b_overhead
      })
    zero (Graph.nodes g)

let latency engine g =
  List.fold_left (fun t n -> t +. node_seconds engine g n) 0.0 (Graph.nodes g)
