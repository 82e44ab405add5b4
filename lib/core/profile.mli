(** The per-layer model report ([unitc profile]).  Modelled rows sum to
    {!Latency.latency}; measured rows plus the residual sum to the wall
    time of the run. *)

type row = {
  pr_node : string;
  pr_kind : string;  (** kind, then fused epilogue kinds: [conv2d+bias_add+relu] *)
  pr_modelled : float;  (** {!Latency.node_seconds} *)
  pr_measured : float option;  (** seconds of the node's [exec.*] span *)
  pr_macs : int option;  (** {!Unit_graph.Workload.macs} of a conv or dense node *)
}

type t = {
  pr_rows : row list;  (** every node but inputs and weights, in graph order *)
  pr_residual : float option;  (** input and weight spans plus the walk itself *)
  pr_wall : float option;
}

val report :
  ?input:Unit_codegen.Ndarray.t -> Latency.engine -> Unit_graph.Graph.t -> t
(** With [input], runs {!Unit_graph.Executor.run} once with tracing on
    (restored after) to fill the measured fields; else they are [None]. *)
