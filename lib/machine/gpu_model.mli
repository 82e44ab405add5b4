(** Analytical GPU performance model (the V100 stand-in).

    GPU kernels for conv/matmul on Tensor Cores are generated from one
    implicit-GEMM template (Section III-C's GPU strategy), so the model
    scores {e kernel plans} rather than walking tensor IR:

    - the op is viewed as an [M x N x K] GEMM of 16x16x16 WMMA tiles;
    - a block accumulates a [p x p] tile window (Fig. 6): larger [p]
      reuses each loaded sub-matrix [p] times and creates [p^2] independent
      accumulation chains, but [p > 2] overflows the register file;
    - [fuse_dim] fuses output H and W before tiling, saving the padding
      waste of small feature maps at the price of a data-rearrangement
      pass;
    - [split_k] parallelizes the reduction across [split_k] blocks and
      pays a synchronization plus a final cross-block reduction — the big
      lever when the spatial grid alone cannot fill 80 SMs.

    The cost combines tensor-core issue, accumulation-latency stalls,
    global-memory traffic, occupancy waves, and those overheads. *)

type gemm = {
  g_m : int;  (** data-parallel rows (e.g. OH*OW) *)
  g_n : int;  (** data-parallel columns (e.g. output channels) *)
  g_k : int;  (** reduction length (e.g. R*S*C) *)
  g_oh : int;  (** output height before fusion (= [g_m] rows of [g_ow]) *)
  g_ow : int;
  g_in_bytes : int;  (** activation working set, for rearrangement cost *)
  g_stride : int;  (** conv stride; strided gathers lose locality *)
}

val gemm_of_conv : Unit_dsl.Op_library.conv2d_spec -> gemm
(** Implicit-GEMM view of a (padded) convolution at batch size 1. *)

val gemm_of_matmul : m:int -> n:int -> k:int -> gemm

type config = {
  p : int;  (** outer-product window; Fig. 6's p *)
  fuse_dim : bool;
  split_k : int;  (** 1 = disabled *)
}

val generic_config : config
(** The "Generic" bar of Fig. 11: p = 2, no fusion, no split-K. *)

val candidate_configs : gemm -> config list

type estimate = {
  g_cycles : float;
  g_seconds : float;
  g_compute_cycles : float;
  g_memory_cycles : float;
  g_blocks : int;
  g_waves : float;  (** occupancy waves over the SMs *)
}

val estimate : Spec.gpu -> gemm -> config -> estimate

val estimate_with_report : Spec.gpu -> gemm -> config -> estimate * Cost_report.t
(** [estimate] plus cycle attribution: ideal tensor-core throughput time
    is compute, the wave/latency excess over it is stall, bandwidth time
    beyond compute is memory, and fusion-rearrangement + kernel-launch
    overheads land in fork/join.  Components sum to [g_cycles]. *)

val tune : Spec.gpu -> gemm -> config * estimate

val library_estimate : Spec.gpu -> gemm -> estimate
(** The cuDNN stand-in: near-full tensor-core occupancy and dedicated
    strided kernels (engineering UNIT cannot match), but the padding waste
    of unfused small feature maps and no per-shape (p, split-K) search
    (flexibility cuDNN cannot match).  Dispatch overhead is charged by the
    caller. *)

val cuda_core_seconds : Spec.gpu -> macs:int -> dtype:Unit_dtype.Dtype.t -> float
(** Time on plain CUDA cores {e without} Tensor Cores; fp16 pays
    [f16_cast_penalty] — the Fig. 1 experiment. *)
