(** Reference numeric executor for graphs.

    Runs a model end-to-end on synthesized weights — the correctness side
    of the evaluation: a quantized graph must reproduce the fp32 graph's
    output within quantization tolerance.  Quantized tensors carry a
    per-tensor symmetric [scale] ([real = q * scale]); all rescaling
    happens where real inference engines put it (requantize after the
    accumulator, rescale-on-add for residuals).

    Conv2d, dense and weight synthesis run their own raw loops;
    every other op stores through one flat loop of real numbers, rounded
    and saturated into the output dtype (a concat input already at the
    output's dtype and scale is copied as stored, and a max pool over
    int storage at such a scale takes integer maxima).

    {b Quantized conv2d.} Its sums are exact integers. Both of its kernels
    read each group's input planes from one zero-bordered source: the
    data itself at padding 0, else a copy with [padding] zeros on every
    side, so no kernel clips a tap. A conv whose groups hold at least two
    output channels ([kg >= 2], every dense zoo conv) runs as a small
    GEMM: once per group it gathers each output position's receptive
    field into a panel laid out [[P/4][R][4]], with [R = cg*kern^2] in
    weight-row order and [P] positions, a padding tap gathering a border
    0; [P] is the plane [oh * ow], or a chunk of it where the plane's
    panel would exceed 3 * 2^14 ints. An unpadded 1x1 stride-1
    conv whose plane holds at least four positions reads its data in place
    instead, with row stride [h * w] (a plane that is no multiple of four
    ends with a block overlapping the one before it). A pass runs two
    output channels of a group, in lane pairs: their weight row, built
    from the i8 bytes once per pass and chunk, holds [w(ko) + w(ko + 1)
    lsl 31], so one multiply updates two exact i32 sums held in one native
    int. The microkernel keeps four positions' sums in registers over the
    whole reduction and writes each once; the pass splits them into the
    two channels' output planes, and once a group is done each plane is
    stored in place. It pairs only where [cg * kern^2 * maxabs(data dtype)
    * 128] stays below [2^30], which keeps each lane's sum in [[-2^30,
    2^30)]; elsewhere a pass is one channel. Padding taps add 0 and
    integer addition is exact in any order, so each sum is the same
    integer whatever order the loops take. Depthwise convs ([kg = 1]) run
    a weight-stationary nest instead: one channel per pass, three
    horizontal taps per accumulator update, each over the whole output
    plane. The bordered copy, panel, weight row and the chunk's sums live
    in scratch that a conv takes from a free list and gives back, so
    concurrent convs never share it and steady-state convs allocate none.
    The gated counter
    [exec.panel_macs] counts the MACs the microkernel does.

    A fused node runs its base op and
    then its epilogues (bias_add, relu, clip, add, quantize, dequantize)
    as stages of one pass, each element rounded in a register between
    stages as storing it would round it: bit-identical to storing every
    stage, though only the last one is stored.

    {b Integer requantization.}  A quantized conv2d fused with
    [Bias_add], any number of [Relu]/[Clip] stages (bounds not NaN) and
    a final [Quantize] to an int-storage dtype of at most 2^16 levels,
    with every scale finite and positive, stores that chain's output
    levels straight from its sums, in integer operations.  Let [s0] be
    data scale times weight scale, in [[2^-900, 2^900]], with
    [s0 / output scale <= 2^30].  Three steps keep the result
    bit-identical to the float chain:
    + {e Conv store.}  The I32 store of a sum [v],
      [saturate (of_int v *. s0 /. s0)], is [clamp32 v] for every
      [|v| < 2^61].  Below 2^50 the two roundings move [v] by at most
      [2 * 2^-53 * |v| < 1/4], so rounding gives [v] back; from 2^50 on
      the result stays far beyond 2^31 and both saturate alike.  [s0]'s
      range keeps [v * s0] finite and normal.
    + {e Bias stage.}  Its reload [sat32 (round ((c *. s0 +. b) /. s0))]
      of a stored sum [c] is [clamp32 (c + r)], [r = round (b / s0)],
      for every channel whose [beta = b /. s0] is below 2^31 in
      magnitude and farther than 2^-16 from a half-integer.  With [|c|]
      and [|beta|] at most 2^31 the three float operations err by less
      than [2^31 * 2^-53 + 2^32 * 2^-52 < 2^-19], and [beta] itself by
      less than 2^-22, so the rounding cannot cross a half-integer.
      Other channels run the float step.
    + {e The rest of the chain.}  From the bias stage's I32 result [k],
      each later stage is a composition of non-decreasing maps (a
      product or quotient by a positive scale, max or min with a
      constant, round to nearest, a clamp), and [s0]'s bounds keep each
      conversion to int in range, so the output level [g k] is
      non-decreasing in [k].  It is stored as a table of thresholds:
      [t_j], the least [k] with [g k >= j], found by bisection with the
      chain's own float code.  An element costs one estimate of its
      level and a compare on either side.
    Each graph's tables are built by its first run that needs them and
    kept with its prepared weights, per node, checked against the [s0]
    they were built for.  The gated counters [exec.requant_int] (output
    elements stored this way) and [exec.requant_fallback] (channels whose
    bias step ran in floats) count them.  Any other chain, and float
    data, runs the float chain on the conv's I32 output.

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
    and [k], and padding must not be negative (a kernel larger than the
    padded input gives an empty output, {!Graph.conv_out_dim}); dense
    weights [[units; k']] for [k] inputs with [k' >= k] (a graph run
    below its declared input size flattens to fewer features;
    dense then reads the first [units * k] weights); [Add] operands must
    have one shape; a [Bias_add] bias must be rank 1 with one element per
    channel (the data's first dim); [Concat] inputs must share their
    trailing dims. *)

val requantize :
  accs:int array -> shape:int list -> scale:float -> (Graph.kind * value list) list -> value option
(** The integer store of a fused quantized conv2d, on given sums: [accs]
    holds one exact sum per element of a [shape] tensor (channel first),
    each below 2^61 in magnitude, at [scale].  [Some] of what storing
    them as the conv's I32 output and running the fused [stages] (the
    bias stage first, each with its extra operands) would give, or
    [None] when the integer store does not serve that chain at [scale].
    @raise Exec_error when [accs] does not have one sum per element. *)

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
    buffers.  A run takes its arenas from those earlier runs gave back
    (of any plan, allocating when none is free or big enough) and gives
    them back when it ends.

    The graph's weights are prepared once: the first [run] (or
    {!calibrate}) of a graph synthesizes each weight as {!weight_value}
    does (an [I8] weight straight into one byte per element), and every
    later run of the same physical graph reuses them — counted by the
    always-on [exec.weights_prepared] counter.  Its fused convs'
    requantization tables are kept with them, and both are freed with
    the graph.  The returned value never shares storage with them or
    with an arena: a graph whose output is a weight, or lives in an
    arena, returns a copy.  Safe to call from several domains at once,
    on one graph or many.
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
