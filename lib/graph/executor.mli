(** Reference numeric executor for graphs.

    Runs a model end-to-end on synthesized weights — the correctness side
    of the evaluation: a quantized graph must reproduce the fp32 graph's
    output within quantization tolerance.  Quantized tensors carry a
    per-tensor symmetric [scale] ([real = q * scale]); all rescaling
    happens where real inference engines put it (requantize after the
    accumulator, rescale-on-add for residuals).

    Conv2d, dense and weight synthesis run their own raw loops; every
    other op stores through one flat loop of real numbers, rounded and
    saturated into the output dtype (a concat input already at the
    output's dtype and scale is copied as stored).  The quantized conv2d
    runs two output channels of a group per pass, in lane pairs: each
    weight it reads is [w(ko) + w(ko + 1) lsl 31], so one multiply
    updates two exact i32 sums held in one native int, split at the
    store.  It pairs only where [cg * kern^2 * maxabs(data dtype) * 128]
    stays below [2^30], which keeps each lane's sum in [[-2^30, 2^30)];
    elsewhere a pass is one channel.  A fused node runs its base op and
    then its epilogues (bias_add, relu, clip, add, quantize, dequantize)
    as stages of one pass, each element rounded in a register between
    stages as storing it would round it: bit-identical to storing every
    stage, though only the last one is stored.

    It is the oracle tuned kernels are checked against, and the
    benchmark's [models] workload times it: [run ~plan] on quantized
    resnet18, mobilenet1.0 and squeezenet. *)

open Unit_codegen

type value = {
  arr : Ndarray.t;
  scale : float;  (** 1.0 for float tensors *)
}

exception Exec_error of string

val weight_value : Graph.node -> int list -> Unit_dtype.Dtype.t -> value
(** The weight node's value in its declared dtype, synthesized
    deterministically: fan-in-scaled pseudo-random f32 parameters keyed
    by the node {e name} (passes renumber ids), so every run of every
    pass variant sees the same model.  An integer dtype self-quantizes
    the same parameters with their own max-abs (per-tensor symmetric).
    @raise Exec_error for dtypes outside int storage other than [F32]. *)

val packed_weight : Graph.t -> Graph.id -> Bytes.t option
(** A copy of the bytes the prepared graph holds for an [I8] weight node
    — one [Bytes.get_int8] element per parameter, row-major — preparing
    that weight if no run has yet.  [None] for any other node.  *)

val apply : Graph.kind -> value list -> value
(** Evaluate one operator on concrete values (inputs may be arena views)
    into a fresh output — the per-op numerics {!run} uses.  Quantized
    [Conv2d] and [Dense] pack their weight operand into the same int8
    bytes {!run} prepares, and read it only in that form.
    @raise Exec_error on kind/storage combinations the graph passes never
    produce (quantized conv2d/dense weights must be [I8]), and on operands
    whose shapes contradict the attributes or each other: conv2d weights
    must be [[k; c/groups; kern; kern]] with [groups] dividing both [c]
    and [k]; dense weights [[units; k']] for [k] inputs with [k' >= k] (a
    graph run below its declared input size flattens to fewer features;
    dense then reads the first [units * k] weights); [Add] operands must
    have one shape; a [Bias_add] bias must be rank 1 with one element per
    channel (the data's first dim); [Concat] inputs must share their
    trailing dims. *)

val default_input : Graph.t -> seed:int -> Ndarray.t
(** A deterministic input in [0, 1) matching the graph's input shape. *)

(** {2 Arena plans}

    A memory plan produced by [Unit_analysis.Arena] and lowered to this
    primitive form ([lib/graph] must not depend on the analysis layer).
    Offsets/sizes are in backing-array elements ("host words") of the
    slot's storage class. *)

type slot = {
  sl_id : Graph.id;  (** the node whose output lives here *)
  sl_class : Ndarray.storage_class;
  sl_offset : int;  (** element offset into the class's arena *)
  sl_words : int;  (** slot capacity in elements *)
}

type arena_plan = {
  ap_float_words : int;
  ap_int_words : int;
  ap_int64_words : int;
  ap_slots : slot list;
}

val run : ?plan:arena_plan -> Graph.t -> input:Ndarray.t -> value
(** Execute the whole graph, one node at a time in node-id order (ids
    are topologically ordered), and return the output node's value.  With
    [?plan], planned intermediates write arena views instead of fresh
    per-op buffers — bit-identical results, bounded peak memory.  Nodes
    without a slot (inputs, weights, anything unplanned) keep private
    buffers.

    The graph's weights are prepared once: the first [run] (or
    {!calibrate}) of a graph synthesizes each weight with
    {!weight_value} (an [I8] weight packed one byte per element), and
    every later run of the same physical graph reuses them — counted by
    the always-on [exec.weights_prepared] counter.  The prepared weights
    are freed with the graph.  The returned value never shares storage
    with them: a graph whose output is a weight returns a copy.  Safe to
    call from several domains at once, on one graph or many.
    @raise Exec_error on kind/dtype combinations the graph passes never
    produce, or when a runtime tensor does not fit its planned slot. *)

val run_to_floats : ?plan:arena_plan -> Graph.t -> input:Ndarray.t -> float array
(** [run] then dequantize: the output as real numbers. *)

val calibrate : Graph.t -> input:Ndarray.t -> Graph.id -> float
(** Max-abs of every node's (float-domain) output on this input — the
    profile the quantization pass turns into scales; [1.0] for an id
    outside the graph.  The same walk as {!run} (without a plan): a
    fused node's output is its last epilogue's, and weights are
    prepared or reused exactly as {!run} does. *)
