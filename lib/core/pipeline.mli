(** The end-to-end UNIT pipeline (Fig. 3): operation + instruction in,
    tensorized and tuned kernel out.

    [tensorize] is the whole story: Inspector (applicability), Rewriter
    (loop reorganization + instruction replacement), tuner (machine-model
    profiling).  The per-workload helpers below add the graph-level
    plumbing (layout blocking, channel padding) and cache compiled kernels
    by workload, which is what the end-to-end figures iterate over. *)

open Unit_dsl
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Spec = Unit_machine.Spec

type compiled = {
  c_op : Op.t;
  c_intrin : Unit_isa.Intrin.t;
  c_tuned : Cpu_tuner.tuned;
  c_mappings : int;  (** feasible loop mappings the Inspector found *)
  c_warnings : Unit_tir.Diag.t list;  (** the analyzer's warnings *)
}

type failure =
  | Rejected of Unit_inspector.Inspector.rejection
      (** the Inspector found no applicable mapping *)
  | Illegal of Unit_tir.Diag.t list
      (** every diagnostic of a tuned schedule the dependence analyzer
          proved illegal (at least one is an error) *)

val failure_to_string : failure -> string
(** The rejection text, or ["illegal schedule: "] and the errors joined
    by ["; "]. *)

(** {2 CPU targets}

    The pipeline is the same on every CPU (Fig. 3, §III): a target only
    picks the machine model, the default instruction and the graph's
    activation dtype.  Everything that varies by target is declared
    here, once; drivers, the warm-up scheduler and the daemon parse a
    target with {!target_of_string} and reach their kernel through
    {!compiled}. *)

type target =
  | X86  (** Cascade Lake with VNNI ([vnni.vpdpbusd]) *)
  | Arm  (** Graviton2 with DOT ([arm.udot]) *)

val target_of_string : string -> (target, string) result
(** Accepts [x86]/[cascadelake] and [arm]/[graviton2]; anything else is
    ["unknown target NAME (x86|cascadelake|arm|graviton2)"]. *)

val target_to_string : target -> string
(** ["x86"] or ["arm"]: the canonical name in job keys and responses. *)

val target_spec : target -> Spec.cpu
val target_platform : target -> Unit_isa.Intrin.platform
(** The instruction family the target offers ([unitc explain] sweeps it). *)

val target_intrin : target -> string
(** The instruction {!compiled} tensorizes with. *)

val target_act_dtype : target -> Unit_dtype.Dtype.t
(** The activation dtype of the target's quantized graphs: u8 on x86,
    i8 on ARM.  The tensorized kernels themselves take u8 on both (see
    {!conv_op}). *)

val tensorize :
  ?use_store:bool ->
  ?config:Cpu_tuner.config ->
  spec:Spec.cpu ->
  Op.t ->
  Unit_isa.Intrin.t ->
  (compiled, failure) result
(** The one tensorize verdict for an (operation, instruction) pair:
    inspect, reorganize, tune over the full candidate grid (or realize the
    one pinned [config]), lower, replace and analyze.  [Error (Rejected
    r)] when the instruction does not apply; [Error (Illegal diags)] when
    the dependence analyzer proves the tuned schedule illegal (race,
    carried dependence, tensorize footprint, overflow).  Analyzer warnings are
    kept in [c_warnings] and also reported through {!Logs.warn}.
    [use_store:false] (default [true]) leaves the installed tuning store
    untouched, as [unitc explain] does. *)

val workload_signature :
  spec:Spec.cpu -> Op.t -> Unit_isa.Intrin.t -> string
(** Canonical identity of one tensorization problem: op name, output and
    input dtypes+shapes, spatial/reduce extents, instruction name {e and
    semantic digest} (see {!Unit_isa.Intrin.semantic_digest} — so a
    pack-loaded instruction edit, or two packs defining different
    semantics under one name, can never replay each other's records) and
    target machine — everything a stored tuning config's validity depends
    on.  [Unit_store.Store] hashes this (together with its schema version
    and {!Cpu_tuner.version}) into the content address of a persisted
    tuning record; the emitted engine folds it into artifact keys. *)

val kernel_signature :
  spec:Spec.cpu -> Op.t -> Unit_isa.Intrin.t -> string
(** The emitted-engine signature a tuned kernel is baked and run under:
    ["tensorized|"] then its {!workload_signature}.  {!bake}, the
    daemon's run handler and [unitc run] all key on it, so an artifact
    baked by a warm-up serves every later run of the same kernel. *)

(** {2 Execution engines}

    Every driver entry point that executes a lowered kernel picks one of
    three engines behind the same interface.  All three are bit-identical
    on analyzer-clean programs (the differential tests enforce it). *)

type engine =
  | Reference  (** the tree-walking interpreter — the oracle *)
  | Compiled  (** closure-compiled fast path ({!Unit_codegen.Compile}) *)
  | Emitted
      (** natively emitted: pretty-printed OCaml, [ocamlopt -shared],
          [Dynlink]ed, content-addressed into the store
          ({!Unit_codegen.Emit_cache}); degrades to [Compiled] (or
          [Reference] for view bindings) with a [Diag.Emit] warning *)

val engine_of_string : string -> (engine, Unit_tir.Diag.t) result
(** ["reference"], ["compiled"], ["emitted"]; anything else is a
    structured [Diag.Emit] error naming the valid set. *)

val engine_to_string : engine -> string

val engine_names : string
(** ["reference|compiled|emitted"] — for CLI doc strings. *)

val run_func :
  engine:engine ->
  ?signature:string ->
  Unit_tir.Lower.func ->
  bindings:(Unit_dsl.Tensor.t * Unit_codegen.Ndarray.t) list ->
  unit
(** Execute through the chosen engine.  [signature] (the
    {!workload_signature}, possibly variant-prefixed) keys the emitted
    engine's persistent artifacts; it is ignored by the other two. *)

val prepare_emitted : signature:string -> Unit_tir.Lower.func -> (unit, string) result
(** Render + native-compile + cache a kernel without executing it — the
    warm-up scheduler's hook for pre-baking artifacts. *)

(** {2 Persistent tuning store (dependency-inverted)}

    [lib/store] owns the on-disk database; the pipeline only sees these
    two hooks.  When a store is installed and {!tensorize} is called with
    the default search (no pinned [configs], [use_store] left [true]):
    - a [ts_lookup] hit recompiles via {!Cpu_tuner.of_config} — the
      expensive sweep is skipped entirely (no [tensorize.tune] span);
    - a miss runs the sweep and hands the freshly tuned, analyzer-clean
      result to [ts_record] for persistence. *)

type tuning_store = {
  ts_lookup : signature:string -> Cpu_tuner.config option;
  ts_record :
    signature:string ->
    workload:string ->
    isa:string ->
    target:string ->
    diags:Unit_tir.Diag.t list ->
    Cpu_tuner.tuned ->
    unit;
}

val set_tuning_store : tuning_store option -> unit
(** Install (or clear) the process-wide store.  Domain-safe to read; the
    hooks themselves must be safe for concurrent calls (the ones built by
    [Unit_store.Store.pipeline_hooks] are). *)

val tuning_store : unit -> tuning_store option

val intrin_meta : string -> Unit_analysis.Analysis.intrin_meta option
(** Registry-backed instruction metadata for the dependence analyzer:
    axis extents, multiplicand dtypes and the accumulation flag of a
    registered instruction. *)

val analyze : Cpu_tuner.tuned -> Unit_tir.Diag.t list
(** Run the schedule-legality analyzer on a tuned kernel with
    {!intrin_meta} resolution; what {!tensorize} gates on. *)

val seconds : compiled -> float

(** {2 Cached per-workload kernels}

    {!compiled} and the per-platform helpers cache compiled kernels by
    their {!kernel_key}: the machine, the instruction, the tuning config
    and every field of the workload.  A repeated workload returns the
    {e same} compiled kernel — same tuned schedule, physically shared —
    without re-running the pipeline.  Convolutions are built with
    {!conv_op}: u8 activations and i8 weights on both CPU targets (VNNI
    and DOT are unsigned-by-signed); only the [neon.mla.i16] baseline
    widens both to i16.

    The cache is the process's one single-flight for compiles.  A miss
    registers an in-flight entry and compiles outside the cache lock;
    concurrent callers of the same key wait for it and adopt the
    leader's physically identical result, so any number of domains
    asking for one workload run one tuner sweep.  If the leader raises
    (a transient failure, or [Invalid_argument] for a workload that does
    not tensorize), the exception reaches the leader's caller only; the
    in-flight entry is dropped and the next waiter compiles afresh.
    Traffic is counted on [pipeline.cache.hit] / [pipeline.cache.miss]
    when tracing is enabled, and callers that adopted an in-flight
    compile on the always-on [pipeline.cache.wait]. *)

val compiled : target -> Unit_graph.Workload.t -> compiled
(** The target's tuned kernel for a conv2d, conv3d or dense workload
    with {!target_intrin}, through the installed tuning store.  Cached:
    calling twice with an equal workload returns the identical
    [compiled] value.
    @raise Invalid_argument when the workload does not tensorize. *)

val kernel_key : target -> Unit_graph.Workload.t -> string
(** ["MACHINE/INSTRUCTION/WORKLOAD/TUNING"]: the identity {!compiled}
    caches under, e.g.
    ["x86/vnni.vpdpbusd/conv2d_c64_h56_w56_k128_r3_s2_p1_g1/tuned"].
    One function in this module builds every kernel key, the memo's
    under pinned CPU configs included, from every field of the
    workload; {!Unit_graph.Workload.name} is only the display name and
    drops fields.  The warm-up scheduler's jobs and the daemon's
    coalescing key on it too, so all three agree on what "the same
    kernel" means. *)

val bake : engine -> target -> compiled -> unit
(** With [Emitted], render + native-compile the kernel through
    {!prepare_emitted} under its {!kernel_signature}, so a
    store-backed warm-up or profile leaves a loadable [.cmxs] behind;
    emission failure degrades (counted on [emit.fallback]) and is
    ignored.  A no-op for the other engines. *)

val conv_op :
  ?data_dtype:Unit_dtype.Dtype.t ->
  ?weight_dtype:Unit_dtype.Dtype.t ->
  Unit_isa.Intrin.t ->
  Unit_graph.Workload.conv2d ->
  Op.t
(** The pipeline's blocked convolution for one instruction: [data_dtype]
    u8 and [weight_dtype] i8 by default, blocked by the instruction's
    output lanes and reduction width.  On ARM the reduction block is at
    least 4, so the reduction-free MLA baseline still blocks its input
    channels. *)

val conv_compiled_x86 :
  ?config:Cpu_tuner.config -> Unit_graph.Workload.conv2d -> compiled
(** [compiled X86 (Conv wl)]; a fixed [config] skips the search (used by
    the Fig. 10 ablation) and caches apart from the tuned kernel. *)

val conv_time_x86 :
  ?config:Cpu_tuner.config -> Unit_graph.Workload.conv2d -> float
(** [seconds (conv_compiled_x86 ?config wl)]. *)

val conv_compiled_arm :
  ?intrin:string -> ?config:Cpu_tuner.config -> Unit_graph.Workload.conv2d -> compiled
(** [compiled Arm (Conv wl)] with [intrin] (default ["arm.udot"]) and an
    optional fixed [config]. *)

val conv_time_arm :
  ?intrin:string -> ?config:Cpu_tuner.config -> Unit_graph.Workload.conv2d -> float
(** UNIT on Graviton2; [intrin] defaults to ["arm.udot"], the Fig. 12
    TVM-NEON baseline passes ["neon.mla.i16"]. *)

val mem_report : compiled -> Unit_analysis.Footprint.report
(** Static memory footprint of the tensorized kernel
    ({!Unit_analysis.Footprint.of_func} with {!intrin_meta} resolution):
    scratch peak, instruction tile window, exactly-bounded touched
    ranges. *)

val conv3d_time_x86 : Unit_graph.Workload.conv3d -> float
(** Fig. 13: 3-D convolutions through the unchanged pipeline. *)

val dense_time_x86 : Unit_graph.Workload.dense -> float
val dense_time_arm : Unit_graph.Workload.dense -> float

val conv_time_gpu : ?config:Unit_machine.Gpu_model.config -> Unit_graph.Workload.conv2d -> float
(** UNIT on the V100 model: implicit-GEMM Tensor Core template, tuned over
    (p, fuse_dim, split_k) unless [config] pins one.  Not cached: one
    tune of the model costs about what a memo probe would, and there is
    no kernel to share. *)

val depthwise_time_cpu : Spec.cpu -> Unit_graph.Workload.conv2d -> float
(** Grouped convolutions never tensorize; they run as memory-bound vector
    code. *)

val clear_cache : unit -> unit
(** Drop every cached kernel.  Compiles in flight are unaffected: their
    leaders still publish (into the emptied cache) and wake their
    waiters. *)

val set_cache_cap : int -> unit
(** Bound the in-memory kernel cache (default 1024 entries).  When an
    insert pushes it over the cap, the oldest entries are evicted FIFO
    and counted on [pipeline.cache.evict].  In-flight compiles never
    count toward the cap.  Raises [Invalid_argument] below 1.  Shrinking
    the cap evicts immediately. *)

val cache_cap : unit -> int
val cache_size : unit -> int
