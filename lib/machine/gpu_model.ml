type gemm = {
  g_m : int;
  g_n : int;
  g_k : int;
  g_oh : int;
  g_ow : int;
  g_in_bytes : int;
  g_stride : int;
}

let gemm_of_conv (spec : Unit_dsl.Op_library.conv2d_spec) =
  let oh = Unit_dsl.Op_library.out_height spec in
  let ow = Unit_dsl.Op_library.out_width spec in
  { g_m = oh * ow;
    g_n = spec.Unit_dsl.Op_library.out_channels;
    g_k = spec.Unit_dsl.Op_library.kernel * spec.Unit_dsl.Op_library.kernel
          * spec.Unit_dsl.Op_library.in_channels;
    g_oh = oh;
    g_ow = ow;
    g_in_bytes =
      spec.Unit_dsl.Op_library.in_height * spec.Unit_dsl.Op_library.in_width
      * spec.Unit_dsl.Op_library.in_channels * 2;
    g_stride = spec.Unit_dsl.Op_library.stride
  }

let gemm_of_matmul ~m ~n ~k =
  { g_m = m; g_n = n; g_k = k; g_oh = 1; g_ow = m; g_in_bytes = m * k * 2; g_stride = 1 }

type config = {
  p : int;
  fuse_dim : bool;
  split_k : int;
}

let generic_config = { p = 2; fuse_dim = false; split_k = 1 }

let candidate_configs gemm =
  let ps = [ 1; 2; 4 ] in
  let fuses = if gemm.g_oh > 1 then [ false; true ] else [ false ] in
  let splits = [ 1; 2; 4; 8; 16 ] in
  List.concat_map
    (fun p ->
      List.concat_map
        (fun fuse_dim -> List.map (fun split_k -> { p; fuse_dim; split_k }) splits)
        fuses)
    ps

type estimate = {
  g_cycles : float;
  g_seconds : float;
  g_compute_cycles : float;
  g_memory_cycles : float;
  g_blocks : int;
  g_waves : float;
}

(* Model constants: WMMA tile edge; cycles one warp needs to issue one
   WMMA through its tensor-core pipe (the SM's 8 pipes need ~8 resident
   warps to saturate); the accumulate latency a dependent chain exposes;
   per-warp shared-memory staging reuse; and the register-spill penalty
   once the p x p accumulator window exceeds the file. *)
let tile = 16
let wmma_latency = 32.0
let warps_to_saturate = 8.0
let spill_penalty = 2.5
let max_p_without_spill = 2
let smem_reduce_bw = 128.0 (* bytes/cycle for the split-K epilogue *)

let ceil_div a b = (a + b - 1) / b

let tiles gemm config =
  let tm =
    if config.fuse_dim || gemm.g_oh = 1 then ceil_div gemm.g_m tile
    else gemm.g_oh * ceil_div gemm.g_ow tile
  in
  (tm, ceil_div gemm.g_n tile, ceil_div gemm.g_k tile)

let launch_cycles (spec : Spec.gpu) =
  spec.Spec.kernel_launch_us *. 1e-6 *. spec.Spec.freq_ghz *. 1e9

let finish (spec : Spec.gpu) ~compute ~memory ~overheads ~blocks ~waves =
  let cycles = Float.max compute memory +. overheads +. launch_cycles spec in
  { g_cycles = cycles;
    g_seconds = Spec.cycles_to_seconds ~freq_ghz:spec.Spec.freq_ghz cycles;
    g_compute_cycles = compute;
    g_memory_cycles = memory;
    g_blocks = blocks;
    g_waves = waves
  }

(* UNIT's generated kernel: one block owns a p x p window of WMMA tiles
   (Fig. 6); split_k warps per block each reduce a K segment and combine in
   shared memory.  Tensor-core throughput needs ~8 resident warps per SM,
   so occupancy — blocks per SM x warps per block — is the first-order
   term, which is exactly what SplitK buys on small grids. *)
let estimate_with_report (spec : Spec.gpu) gemm config =
  let tm, tn, tk = tiles gemm config in
  let blocks = ceil_div tm config.p * ceil_div tn config.p in
  let p = Float.of_int config.p in
  (* one warp drives one of the SM's pipes *)
  let per_pipe_tput = spec.Spec.tensor_tput_per_sm /. warps_to_saturate in
  let warp_issue = 4096.0 /. per_pipe_tput in
  let per_step = p *. p *. Float.max warp_issue wmma_latency in
  let per_step =
    if config.p > max_p_without_spill then per_step *. spill_penalty else per_step
  in
  (* strided activation gathers are not coalesced: every row of the
     staging load splits into [stride] transactions and the transposed
     access loses the line neighbours — the #1/#15 locality loss *)
  let per_step = per_step *. Float.of_int (gemm.g_stride * gemm.g_stride) in
  let warp_time = Float.of_int (ceil_div tk config.split_k) *. per_step in
  let splitk_overhead =
    if config.split_k > 1 then
      spec.Spec.sync_cost_cycles
      +. (Float.of_int (config.split_k * config.p * config.p * tile * tile * 4)
          /. smem_reduce_bw)
    else 0.0
  in
  let active_sms = Stdlib.min blocks spec.Spec.sms in
  let resident =
    Stdlib.max 1 (Stdlib.min spec.Spec.max_blocks_per_sm (ceil_div blocks spec.Spec.sms))
  in
  let utilization =
    Float.min 1.0 (Float.of_int (resident * config.split_k) /. warps_to_saturate)
  in
  let total_macs = Float.of_int tm *. Float.of_int tn *. Float.of_int tk *. 4096.0 in
  let throughput_time =
    total_macs
    /. (Float.of_int active_sms *. spec.Spec.tensor_tput_per_sm *. utilization)
    (* the gather inefficiency also caps sustained throughput *)
    *. Float.of_int gemm.g_stride
  in
  (* grids beyond full residency serialize into waves of blocks *)
  let waves = ceil_div blocks (spec.Spec.sms * resident) in
  let compute =
    Float.max throughput_time
      (Float.of_int waves *. (warp_time +. splitk_overhead))
  in
  (* global traffic: each block streams its K panels once, staged through
     shared memory; strided activation gathers waste whole lines *)
  let elem_bytes = 2.0 in
  let tile_bytes = Float.of_int (tile * tile) *. elem_bytes in
  let a_bytes = p *. tile_bytes *. Float.of_int (gemm.g_stride * gemm.g_stride) in
  let b_bytes = p *. tile_bytes in
  let stream_bytes = Float.of_int (blocks * tk) *. (a_bytes +. b_bytes) in
  (* L2 catches cross-block panel reuse: each operand element crosses DRAM
     about twice even when many blocks share it *)
  let working_set =
    2.0 *. Float.of_int ((gemm.g_m * gemm.g_k) + (gemm.g_k * gemm.g_n))
    *. Float.of_int (gemm.g_stride * gemm.g_stride)
  in
  let total_bytes = Float.min stream_bytes (2.0 *. working_set) in
  let memory = total_bytes /. spec.Spec.dram_bw_bytes_per_cycle in
  let fuse_overhead =
    if config.fuse_dim && gemm.g_oh > 1 then
      Float.of_int gemm.g_in_bytes *. 2.0 /. spec.Spec.dram_bw_bytes_per_cycle
    else 0.0
  in
  let est =
    finish spec ~compute ~memory ~overheads:(fuse_overhead) ~blocks
      ~waves:(Float.of_int (ceil_div blocks spec.Spec.sms))
  in
  (* Attribution: ideal tensor-core throughput is pure compute; whatever
     the wave/latency path adds on top of it is occupancy stall; memory
     time beyond compute is bandwidth-bound; fusion rearrangement, split-K
     epilogues already inside [compute], launch goes to fork/join. *)
  let stall_c = Float.max 0.0 (compute -. throughput_time) in
  let pure_c = compute -. stall_c in
  let memory_c = Float.max 0.0 (memory -. compute) in
  let report =
    Cost_report.make ~compute:pure_c ~stall:stall_c ~icache:0.0
      ~fork_join:(fuse_overhead +. launch_cycles spec)
      ~memory:memory_c
      ~intensity:(total_macs /. Float.max 1.0 total_bytes)
      ~ridge:(Spec.gpu_ridge spec)
  in
  (est, report)

let estimate spec gemm config = fst (estimate_with_report spec gemm config)

(* A vendor-library kernel (the cuDNN stand-in).  Engineered kernels are
   pipelined and multi-warp: they run throughput-bound at full per-SM
   utilization on whatever blocks the grid offers, and ship dedicated
   strided kernels (callers pass the true stride; it is waived here).
   What they cannot do is fuse dimensions (padding waste stays), split the
   reduction, or pick tiles per shape at batch 1 — a constant
   inefficiency. *)
let library_batch1_inefficiency = 1.8

let library_estimate (spec : Spec.gpu) gemm =
  let gemm = { gemm with g_stride = 1 } in
  let config = { p = 2; fuse_dim = false; split_k = 1 } in
  let tm, tn, tk = tiles gemm config in
  let blocks = ceil_div tm config.p * ceil_div tn config.p in
  let active_sms = Stdlib.min (Stdlib.max 1 blocks) spec.Spec.sms in
  let total_macs = Float.of_int tm *. Float.of_int tn *. Float.of_int tk *. 4096.0 in
  let compute =
    total_macs /. (Float.of_int active_sms *. spec.Spec.tensor_tput_per_sm)
  in
  let tile_bytes = Float.of_int (tile * tile) *. 2.0 in
  let stream_bytes = Float.of_int (blocks * tk) *. (4.0 *. tile_bytes) in
  let working_set = 2.0 *. Float.of_int ((gemm.g_m * gemm.g_k) + (gemm.g_k * gemm.g_n)) in
  let total_bytes = Float.min stream_bytes (2.0 *. working_set) in
  let memory = total_bytes /. spec.Spec.dram_bw_bytes_per_cycle in
  let cycles =
    (Float.max compute memory *. library_batch1_inefficiency) +. launch_cycles spec
  in
  { g_cycles = cycles;
    g_seconds = Spec.cycles_to_seconds ~freq_ghz:spec.Spec.freq_ghz cycles;
    g_compute_cycles = compute;
    g_memory_cycles = memory;
    g_blocks = blocks;
    g_waves = Float.of_int (ceil_div blocks spec.Spec.sms)
  }

let tune spec gemm =
  match candidate_configs gemm with
  | [] -> assert false (* every p, fuse and split-k list is non-empty *)
  | first :: rest ->
    List.fold_left
      (fun ((_, best_est) as best) config ->
        let est = estimate spec gemm config in
        if est.g_cycles < best_est.g_cycles then (config, est) else best)
      (first, estimate spec gemm first)
      rest

let cuda_core_seconds (spec : Spec.gpu) ~macs ~dtype =
  let penalty =
    match dtype with
    | Unit_dtype.Dtype.F16 -> spec.Spec.f16_cast_penalty
    | _ -> 1.0
  in
  let cycles =
    (Float.of_int macs /. (spec.Spec.fma_tput_per_sm *. Float.of_int spec.Spec.sms))
    *. penalty
    +. (spec.Spec.kernel_launch_us *. 1e-6 *. spec.Spec.freq_ghz *. 1e9)
  in
  Spec.cycles_to_seconds ~freq_ghz:spec.Spec.freq_ghz cycles
