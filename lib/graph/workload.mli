(** Kernel workloads extracted from a graph: the units UNIT compiles.

    A workload is a conv/dense shape plus dtypes; equal workloads are
    deduplicated with a count so a model compiles each distinct kernel
    once (the paper's 148 distinct convolutions across 9 models). *)

open Unit_dtype

type conv2d = {
  c : int;  (** input channels *)
  h : int;  (** input height (pre-padding) *)
  w : int;
  k : int;  (** output channels *)
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

val of_node : Graph.t -> Graph.node -> t option
(** The conv2d, conv3d or dense workload a node computes; [None] for
    every other kind. *)

val of_graph : Graph.t -> (t * int) list
(** Distinct workloads with multiplicities, in first-appearance order. *)

val macs : t -> int
(** True multiply-accumulates (no padding). *)

val name : t -> string
(** The display name, e.g. ["conv_c64_hw56x56_k128_r3_s2"], in reports,
    op names and responses.  It leaves out conv2d padding and conv3d
    height, width and padding, so it does not identify a kernel: the
    kernel memo, the warm-up and the daemon key by
    [Unit_core.Pipeline.kernel_key]. *)

val pad_to : int -> multiple:int -> int

val conv_spec :
  lanes:int -> reduce_width:int -> conv2d -> Unit_dsl.Op_library.conv2d_spec
(** The spatially padded, channel-padded spec handed to
    {!Unit_dsl.Op_library.conv2d_nchwc}: spatial padding from the conv
    attribute; input channels padded to a [reduce_width] multiple and
    output channels to a [lanes] multiple (the graph-level padding of
    Section II-C.1).
    @raise Invalid_argument on grouped convolutions — those never
    tensorize and are costed separately. *)

val conv_op :
  data_dtype:Dtype.t ->
  weight_dtype:Dtype.t ->
  lanes:int ->
  reduce_width:int ->
  conv2d ->
  Unit_dsl.Op.t

val conv3d_op :
  data_dtype:Dtype.t ->
  weight_dtype:Dtype.t ->
  lanes:int ->
  reduce_width:int ->
  conv3d ->
  Unit_dsl.Op.t

val dense_op :
  data_dtype:Dtype.t -> weight_dtype:Dtype.t -> lanes:int -> reduce_width:int -> dense -> Unit_dsl.Op.t
(** Dense with [d_units] padded to a [lanes] multiple and [d_k] to a
    [reduce_width] multiple. *)
