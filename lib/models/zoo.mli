(** The model zoo: the nine networks of the end-to-end evaluation
    (Figs. 8, 9 and 12), by name. *)

val all : (string * (unit -> Unit_graph.Graph.t)) list
(** In the figures' x-axis order: resnet18, resnet34, resnet50, resnet50b,
    inception_v3, mobilenet1.0, mobilenet_v2, squeezenet, vgg16. *)

val find : string -> (unit -> Unit_graph.Graph.t) option

val resolve :
  string ->
  ( [ `Table1 of int * Unit_graph.Workload.conv2d
    | `Model of unit -> Unit_graph.Graph.t ],
    string )
  result
(** What every command taking a model name accepts: a zoo model by name,
    or one Table I row as ["table1:N"] ({!Table1.find}, with its error
    texts). *)

val names : string list

val conv_workloads : Unit_graph.Graph.t -> (Unit_graph.Workload.conv2d * int) list
(** Distinct dense (non-grouped) 2-D convolutions with multiplicities. *)

val depthwise_workloads : Unit_graph.Graph.t -> (Unit_graph.Workload.conv2d * int) list
val dense_workloads : Unit_graph.Graph.t -> (Unit_graph.Workload.dense * int) list

val total_distinct_convs : unit -> int
(** Distinct convolution shapes across the whole zoo (the paper counts
    148 — our square-kernel inception differs slightly). *)
