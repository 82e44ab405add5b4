(** End-to-end inference latency of a (quantized, fused) graph.

    The heavy operators go to an {!engine}'s kernel-time functions; the
    lightweight glue (standalone activations, residual adds, pools,
    quantize/dequantize, concat...) is memory-bound data movement; and
    every surviving node pays the engine's per-node dispatch overhead —
    the term where operator fusion and library-vs-compiler differences
    show up at the model level (Figs. 8, 9, 12). *)

open Unit_graph

type engine = {
  e_name : string;
  e_conv : Workload.conv2d -> float;
  e_depthwise : Workload.conv2d -> float;
  e_conv3d : Workload.conv3d -> float;
  e_dense : Workload.dense -> float;
  e_elementwise_bw : float;  (** bytes per second for glue ops *)
  e_node_overhead : float;  (** seconds of dispatch per graph node *)
}

val node_seconds : engine -> Graph.t -> Graph.node -> float
(** One node's modelled seconds: its operator plus the dispatch
    overhead; [0.] for inputs and weights. *)

val latency : engine -> Graph.t -> float
(** Seconds for one inference (batch 1): the sum of {!node_seconds}
    over the graph. *)

type breakdown = {
  b_conv : float;
  b_depthwise : float;
  b_dense : float;
  b_elementwise : float;
  b_overhead : float;
}

val latency_breakdown : engine -> Graph.t -> breakdown
val breakdown_total : breakdown -> float
