(* The metric catalog: every name the benchmark prints, with its unit.
   An untraced run prints exactly [end_to_end]; a traced run exactly
   [per_layer].  BENCHMARK.json lists the same names, with each one's
   direction (the smoke test rule checks that it names them all). *)

type metric = {
  name : string;
  unit : string;
}

let m name unit = { name; unit }

let end_to_end =
  [ m "setup_s" "s";
    m "latency_ms" "ms";
    m "throughput_per_s" "1/s";
    m "peak_rss_mb" "MB"
  ]

(* Table I rows the kernels workload runs; [closure_rows] also run on
   the closure engine. *)
let kernel_rows = [ 2; 3; 5; 13; 14; 15 ]
let closure_rows = [ 2; 15 ]
let models = [ "resnet18"; "mobilenet1.0"; "squeezenet" ]

let per_layer =
  (* kernels: Unit_codegen.Emit_cache and Unit_codegen.Compile *)
  [ m "kernel.emitted_gmacs" "GMAC/s";
    m "kernel.compiled_gmacs" "GMAC/s" ]
  @ List.map (fun r -> m (Printf.sprintf "emit_cache.run_ms.t%d" r) "ms") kernel_rows
  @ [ m "emit_cache.scalar_ratio" "ratio";
      m "emit_cache.peak_fraction" "ratio";
      m "emit_cache.render_ms" "ms";
      m "emit_cache.ocamlopt_ms" "ms";
      m "emit_cache.dynlink_ms" "ms";
      m "emit_cache.prepare_ms" "ms" ]
  @ List.map (fun r -> m (Printf.sprintf "closure.run_ms.t%d" r) "ms") closure_rows
  @ [ m "closure.scalar_ratio" "ratio" ]
  (* models: Unit_graph.Executor, Unit_graph.Passes, Unit_analysis.Arena *)
  @ List.map (fun name -> m (Printf.sprintf "model.%s_ms" name) "ms") models
  @ List.concat_map
      (fun part ->
        List.map (fun name -> m (Printf.sprintf "executor.%s_ms.%s" part name) "ms") models)
      [ "weight"; "conv"; "glue" ]
  @ [ m "executor.parallelism" "ratio";
      m "arena.plan_ms" "ms";
      m "passes.quantize_fuse_ms" "ms" ]
  (* compile: Unit_inspector, Unit_rewriter, Unit_analysis, Unit_store *)
  @ [ m "compile.cold_ms" "ms";
      m "compile.warm_ms" "ms";
      m "compile.emit_ms" "ms";
      m "inspector.inspect_us" "us";
      m "reorganize.apply_us" "us";
      m "cpu_tuner.tune_us" "us";
      m "cpu_tuner.lower_replace_us" "us";
      m "analysis.analyze_us" "us";
      m "cpu_tuner.candidates_per_kernel" "count";
      m "cpu_tuner.from_config_us" "us";
      m "store.hit_ratio" "ratio";
      m "warmup.dedup_ratio" "ratio";
      m "warmup.parallel_efficiency" "ratio" ]
  (* serve: Unit_serve *)
  @ [ m "serve.p50_us" "us";
      m "serve.p99_us" "us";
      m "serve.throughput_rps" "1/s";
      m "server.queue_us.p50" "us";
      m "server.queue_us.p99" "us";
      m "server.run_us.p50" "us";
      m "server.run_us.p99" "us";
      m "server.coalesced_ratio" "ratio";
      m "handler.duplicate_tunes" "count";
      m "server.store_hit_ratio" "ratio";
      m "wire.overhead_us.p50" "us" ]
  (* every workload: Unit_obs and the host *)
  @ [ m "obs.trace_overhead_ratio" "ratio";
      m "host.peak_int_gmacs" "GMAC/s";
      m "host.stream_gbs" "GB/s" ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
