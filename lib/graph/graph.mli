(** Graph-level IR (Section II-C.1): a DAG of tensor operations at batch
    size 1.

    This is the "Relay-lite" substrate UNIT compiles under: models are
    built here, the graph passes (quantization, fusion — see {!Passes})
    rewrite it, and per-node tensor operations are then dispatched to the
    tensor DSL for tensorization.  Activation shapes are NCHW with the
    batch dimension dropped: [\[channels; height; width\]]. *)

open Unit_dtype

type id = int

type pool_kind =
  | Max_pool
  | Avg_pool

type conv2d_attrs = {
  out_channels : int;
  kernel : int;  (** square kernels only; every evaluated model complies *)
  stride : int;
  padding : int;
  groups : int;  (** 1 = dense conv; = in_channels -> depthwise *)
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
      (** parameters; values are synthesized deterministically *)
  | Conv2d of conv2d_attrs
  | Conv3d of conv3d_attrs
  | Dense of { units : int }
  | Bias_add
  | Relu
  | Clip of { lo : float; hi : float }  (** relu6 et al. *)
  | Add  (** residual connection *)
  | Pool of { pool : pool_kind; window : int; stride : int; padding : int }
  | Global_avg_pool
  | Flatten
  | Concat  (** along channels *)
  | Softmax
  | Quantize of { scale : float; dtype : Dtype.t }
  | Dequantize of { scale : float }
      (** inserted by the quantization pass; scales are per-tensor,
          symmetric *)

type node = private {
  id : id;
  name : string;
  kind : kind;
  inputs : id list;
  fused : kind list;
      (** epilogue ops folded into this node by the fusion pass, in
          application order *)
}

type t
(** A graph: nodes in topological order plus a single output. *)

exception Graph_error of string

val nodes : t -> node list
val output : t -> id
val node : t -> id -> node
val arity : t -> int

val shape_of : t -> id -> int list
(** Inferred output shape of a node.
    @raise Graph_error on malformed graphs (checked at construction). *)

val dtype_of : t -> id -> Dtype.t

val build : (string * kind * id list * kind list) list -> output:id -> t
(** Construct a graph from [(name, kind, inputs, fused)] descriptions; the
    position in the list is the node id.  Validates and infers shapes —
    the construction primitive the passes rebuild with.
    @raise Graph_error on malformed input. *)

val base_arity : kind -> int
(** How many operands a kind takes itself: 0 for [Input]/[Weight], 2 for
    conv, dense, [Bias_add] and [Add], 1 for the rest, and [-1] for the
    variadic [Concat].  A node's operands are its own kind's, then each
    fused epilogue's beyond the first ([base_arity k - 1] each, in
    order): the layout {!infer} reads and the executor splits by. *)

val infer : kind -> fused:kind list -> (int list * Unit_dtype.Dtype.t) list -> int list * Unit_dtype.Dtype.t
(** Shape/dtype inference for a single node given input signatures;
    exposed so passes can track signatures while assembling a rebuild. *)

(** Imperative builder for model definitions. *)
module Builder : sig
  type graph = t
  type b

  val create : unit -> b
  val input : b -> ?name:string -> shape:int list -> Dtype.t -> id
  val weight : b -> ?name:string -> shape:int list -> Dtype.t -> id

  val conv2d :
    b ->
    ?name:string ->
    ?groups:int ->
    ?padding:int ->
    ?stride:int ->
    channels:int ->
    kernel:int ->
    id ->
    id
  (** Creates the weight node internally (OIHW layout). *)

  val conv3d :
    b -> ?name:string -> ?padding:int -> ?stride:int -> channels:int -> kernel:int -> id -> id

  val dense : b -> ?name:string -> units:int -> id -> id
  val bias_add : b -> id -> id
  val relu : b -> id -> id
  val relu6 : b -> id -> id
  val add : b -> id -> id -> id
  val max_pool : b -> ?padding:int -> window:int -> stride:int -> id -> id
  val avg_pool : b -> ?padding:int -> window:int -> stride:int -> id -> id
  val global_avg_pool : b -> id -> id
  val flatten : b -> id -> id
  val concat : b -> id list -> id
  val softmax : b -> id -> id

  val finish : b -> id -> graph
  (** Validates and runs shape inference.
      @raise Graph_error if a node is malformed (wrong arity, non-square
      input where required, channel mismatch...). *)
end

val conv_out_dim : size:int -> kernel:int -> stride:int -> padding:int -> int
(** [(size + 2*padding - kernel) / stride + 1], or 0 when the kernel is
    larger than the padded input: every output's window lies inside the
    padded input. *)

val kind_name : kind -> string
val pp_node : Format.formatter -> node -> unit
val pp : Format.formatter -> t -> unit
