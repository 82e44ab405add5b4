(* Integration tests across the top of the stack: the cached kernel-time
   pipeline, the simulated baselines, and the end-to-end latency model —
   the qualitative relationships the paper's figures depend on. *)

open Unit_dtype
module Workload = Unit_graph.Workload
module Pipeline = Unit_core.Pipeline
module Latency = Unit_core.Latency
module Profile = Unit_core.Profile
module Baselines = Unit_baselines.Baselines
module Engines = Unit_baselines.Engines
module Cpu_tuner = Unit_rewriter.Cpu_tuner

let () = Unit_isa.Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)

let wl ?(c = 128) ?(hw = 16) ?(k = 128) ?(kernel = 3) ?(stride = 1) ?(padding = 0) () =
  { Workload.c; h = hw; w = hw; k; kernel; stride; padding; groups = 1 }

(* ---------- pipeline ---------- *)

let test_conv_time_positive_and_cached () =
  let w = wl () in
  let t1 = Pipeline.conv_time_x86 w in
  let t2 = Pipeline.conv_time_x86 w in
  check_bool "positive" true (t1 > 0.0);
  check_bool "deterministic/cached" true (t1 = t2)

(* The workload cache holds whole compiled kernels: a repeated conv2d
   workload returns the physically identical [compiled] (hit counter
   bumps), a distinct workload recompiles (miss counter bumps). *)
let test_workload_kernel_cache () =
  let module Obs = Unit_obs.Obs in
  let check_int = Alcotest.(check int) in
  Pipeline.clear_cache ();
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let hits () = List.assoc "pipeline.cache.hit" (Obs.counters ()) in
  let misses () = List.assoc "pipeline.cache.miss" (Obs.counters ()) in
  let w = wl () in
  let k1 = Pipeline.conv_compiled_x86 w in
  check_int "first call misses" 1 (misses ());
  check_int "no hit yet" 0 (hits ());
  let k2 = Pipeline.conv_compiled_x86 w in
  check_bool "same compiled kernel (physically shared)" true (k1 == k2);
  check_bool "identical tuned config" true
    (k1.Pipeline.c_tuned.Cpu_tuner.t_config = k2.Pipeline.c_tuned.Cpu_tuner.t_config);
  check_int "second call hits" 1 (hits ());
  check_int "still one miss" 1 (misses ());
  check_bool "time helper shares the cached kernel" true
    (Pipeline.conv_time_x86 w = Pipeline.seconds k1);
  check_int "time helper hit the cache too" 2 (hits ());
  ignore (Pipeline.conv_compiled_x86 (wl ~k:256 ()) : Pipeline.compiled);
  check_int "distinct workload misses" 2 (misses ());
  check_int "hits unchanged by distinct workload" 2 (hits ());
  Pipeline.clear_cache ()

(* ---------- CPU targets ---------- *)

let test_target_aliases () =
  let check_string = Alcotest.(check string) in
  List.iter
    (fun (name, want) ->
      match Pipeline.target_of_string name with
      | Ok t ->
        check_bool (name ^ " parses to its target") true (t = want);
        check_string (name ^ " canonical name")
          (if want = Pipeline.X86 then "x86" else "arm")
          (Pipeline.target_to_string t)
      | Error m -> Alcotest.failf "%s rejected: %s" name m)
    [ ("x86", Pipeline.X86); ("cascadelake", Pipeline.X86);
      ("arm", Pipeline.Arm); ("graviton2", Pipeline.Arm) ];
  (match Pipeline.target_of_string "v100" with
   | Error m ->
     check_string "unknown target lists every alias"
       "unknown target v100 (x86|cascadelake|arm|graviton2)" m
   | Ok _ -> Alcotest.fail "v100 is not a CPU target");
  check_bool "per-target spec" true
    (Pipeline.target_spec Pipeline.X86 == Unit_machine.Spec.cascadelake
     && Pipeline.target_spec Pipeline.Arm == Unit_machine.Spec.graviton2);
  check_bool "per-target activation dtype" true
    (Pipeline.target_act_dtype Pipeline.X86 = Dtype.U8
     && Pipeline.target_act_dtype Pipeline.Arm = Dtype.I8)

(* [compiled] caches under [kernel_key]: the per-platform helpers and
   [compiled] share one kernel, and each target tensorizes with its
   default instruction. *)
let test_compiled_shares_helper_kernels () =
  Pipeline.clear_cache ();
  let w = wl ~c:32 ~k:32 () in
  let x86 = Pipeline.compiled Pipeline.X86 (Workload.Conv w) in
  check_bool "x86 conv is the helper's kernel" true (x86 == Pipeline.conv_compiled_x86 w);
  check_bool "x86 uses VNNI" true
    (x86.Pipeline.c_intrin.Unit_isa.Intrin.name = Pipeline.target_intrin Pipeline.X86);
  let arm = Pipeline.compiled Pipeline.Arm (Workload.Conv w) in
  check_bool "arm conv is the helper's kernel" true (arm == Pipeline.conv_compiled_arm w);
  check_bool "arm uses DOT" true (arm.Pipeline.c_intrin.Unit_isa.Intrin.name = "arm.udot");
  let fc = { Workload.d_k = 256; d_units = 32 } in
  check_bool "dense time reads the compiled kernel" true
    (Pipeline.dense_time_arm fc
     = Pipeline.seconds (Pipeline.compiled Pipeline.Arm (Workload.Fc fc)));
  Pipeline.clear_cache ()

(* The memo keys a kernel by every field of its workload: changing any
   one field of a conv2d, conv3d or dense workload gives a different
   kernel whose output shape is its own workload's (a grouped conv does
   not tensorize at all).  [Workload.name] leaves out conv2d padding and
   conv3d height, width and padding. *)
let test_every_field_keys_the_kernel () =
  Pipeline.clear_cache ();
  Fun.protect ~finally:Pipeline.clear_cache @@ fun () ->
  let intrin = Unit_isa.Registry.find_exn (Pipeline.target_intrin Pipeline.X86) in
  let lanes = Unit_isa.Intrin.output_lanes intrin in
  let reduce_width = Unit_isa.Intrin.reduction_width intrin in
  let shape (op : Unit_dsl.Op.t) = Array.to_list op.Unit_dsl.Op.output.Unit_dsl.Tensor.shape in
  let own_shape = function
    | Workload.Conv c -> shape (Pipeline.conv_op intrin c)
    | Workload.Conv3 c ->
      shape (Workload.conv3d_op ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8 ~lanes ~reduce_width c)
    | Workload.Fc d ->
      shape (Workload.dense_op ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8 ~lanes ~reduce_width d)
  in
  let variants base changes =
    let k0 = Pipeline.compiled Pipeline.X86 base in
    List.iter
      (fun (field, wl) ->
        match Pipeline.compiled Pipeline.X86 wl with
        | k ->
          check_bool (field ^ ": a different kernel") true (k != k0);
          Alcotest.(check (list int)) (field ^ ": its own output shape") (own_shape wl)
            (shape k.Pipeline.c_op)
        | exception Invalid_argument _ when field = "groups" -> ())
      changes
  in
  let c = { Workload.c = 16; h = 8; w = 8; k = 16; kernel = 3; stride = 1; padding = 0; groups = 1 } in
  variants (Workload.Conv c)
    (List.map
       (fun (f, wl) -> (f, Workload.Conv wl))
       [ ("c", { c with c = 32 }); ("h", { c with h = 9 }); ("w", { c with w = 10 });
         ("k", { c with k = 32 }); ("kernel", { c with kernel = 1 });
         ("stride", { c with stride = 2 }); ("padding", { c with padding = 1 });
         ("groups", { c with groups = 2 }) ]);
  let c3 =
    { Workload.w3_c = 16; w3_d = 4; w3_h = 4; w3_w = 4; w3_k = 16; w3_kernel = 3;
      w3_stride = 1; w3_padding = 0 }
  in
  variants (Workload.Conv3 c3)
    (List.map
       (fun (f, wl) -> (f, Workload.Conv3 wl))
       [ ("w3_c", { c3 with w3_c = 32 }); ("w3_d", { c3 with w3_d = 5 });
         ("w3_h", { c3 with w3_h = 5 }); ("w3_w", { c3 with w3_w = 6 });
         ("w3_k", { c3 with w3_k = 32 }); ("w3_kernel", { c3 with w3_kernel = 1 });
         ("w3_stride", { c3 with w3_stride = 2 }); ("w3_padding", { c3 with w3_padding = 1 }) ]);
  let d = { Workload.d_k = 64; d_units = 16 } in
  variants (Workload.Fc d)
    [ ("d_k", Workload.Fc { d with d_k = 128 }); ("d_units", Workload.Fc { d with d_units = 32 }) ]

(* ---------- the memo is single-flight ---------- *)

module Obs = Unit_obs.Obs

let check_int = Alcotest.(check int)

let tune_spans () =
  List.fold_left
    (fun acc (a : Obs.agg) ->
      if a.Obs.agg_name = "tensorize.tune" then acc + a.Obs.agg_count else acc)
    0
    (Obs.aggregate_spans (Obs.spans ()))

let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))

(* Poll until [cond ()] holds or [timeout] seconds have passed. *)
let wait_until ?(timeout = 0.2) cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < timeout do
    Unix.sleepf 0.001
  done

(* Run [f] with a fresh cache, tracing on and a tuning store whose
   lookup is [lookup] and whose record does nothing. *)
let with_lookup lookup f =
  Pipeline.clear_cache ();
  Pipeline.set_tuning_store
    (Some
       { Pipeline.ts_lookup = lookup;
         ts_record = (fun ~signature:_ ~workload:_ ~isa:_ ~target:_ ~diags:_ _ -> ())
       });
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Pipeline.set_tuning_store None;
      Pipeline.clear_cache ())
    f

(* [n] domains call [f] at once; each result or exception, in order. *)
let concurrently n f =
  List.init n (fun _ ->
      Domain.spawn (fun () -> match f () with v -> Ok v | exception e -> Error e))
  |> List.map Domain.join

let all_identical = function
  | [] -> true
  | k :: rest -> List.for_all (fun k' -> k' == k) rest

let ok_exn = function Ok v -> v | Error e -> raise e

(* Four domains miss on one workload at once.  The lookup holds every
   caller that reaches it until all four have (or 200 ms pass), so a memo
   that compiles each miss on its own sweeps four times; a single-flight
   memo sends one leader to the store and tuner and hands its kernel to
   the other three. *)
let test_memo_tunes_once_under_contention () =
  let callers = 4 in
  let lookups = Atomic.make 0 in
  let lookup ~signature:_ =
    Atomic.incr lookups;
    wait_until (fun () -> Atomic.get lookups >= callers);
    None
  in
  with_lookup lookup @@ fun () ->
  let w = wl ~c:64 ~k:64 () in
  let ks = List.map ok_exn (concurrently callers (fun () -> Pipeline.conv_compiled_x86 w)) in
  check_int "ts_lookup ran once" 1 (Atomic.get lookups);
  check_int "one tensorize.tune span" 1 (tune_spans ());
  check_bool "all four results are physically equal" true (all_identical ks);
  check_int "the other three adopted the leader's kernel" (callers - 1)
    (counter "pipeline.cache.wait" + counter "pipeline.cache.hit")

(* The first leader's store lookup fails once, after the other callers
   have queued behind it.  Only the leader's caller sees the exception;
   one waiter leads again and the rest adopt its kernel. *)
let test_memo_leader_failure_hands_over () =
  let callers = 4 in
  let lookups = Atomic.make 0 and arrived = Atomic.make 0 in
  let lookup ~signature:_ =
    if Atomic.fetch_and_add lookups 1 = 0 then begin
      wait_until (fun () -> Atomic.get arrived >= callers);
      Unix.sleepf 0.02;
      failwith "transient store failure"
    end;
    None
  in
  with_lookup lookup @@ fun () ->
  let w = wl ~c:64 ~k:64 () in
  let results =
    concurrently callers (fun () ->
        Atomic.incr arrived;
        Pipeline.conv_compiled_x86 w)
  in
  let ks = List.filter_map Result.to_option results in
  check_int "only the first leader's caller failed" (callers - 1) (List.length ks);
  check_bool "with the transient exception" true
    (List.exists (function Error (Failure _) -> true | _ -> false) results);
  check_int "one more lookup by the next leader" 2 (Atomic.get lookups);
  check_bool "the rest share one kernel" true (all_identical ks);
  check_int "one tensorize.tune span" 1 (tune_spans ())

(* A deterministic rejection reaches every concurrent caller: each
   waiter leads in turn, gets [Invalid_argument] too, and nothing is
   cached. *)
let test_memo_rejection_reaches_every_caller () =
  let callers = 4 in
  let armed = Atomic.make false and lookups = Atomic.make 0 in
  let lookup ~signature:_ =
    if Atomic.get armed then begin
      Atomic.incr lookups;
      wait_until (fun () -> Atomic.get lookups >= callers);
      invalid_arg "does not tensorize"
    end;
    None
  in
  with_lookup lookup @@ fun () ->
  ignore (Pipeline.conv_compiled_x86 (wl ~c:32 ~k:32 ()) : Pipeline.compiled);
  let size = Pipeline.cache_size () in
  Atomic.set armed true;
  let results =
    concurrently callers (fun () -> Pipeline.conv_compiled_x86 (wl ~c:64 ~k:64 ()))
  in
  check_bool "every caller got Invalid_argument" true
    (List.for_all (function Error (Invalid_argument _) -> true | _ -> false) results);
  check_int "each caller led in turn" callers (Atomic.get lookups);
  check_int "cache size unchanged" size (Pipeline.cache_size ())

(* Clearing the cache and shrinking its cap while a compile is in
   flight strands no caller: the leader still publishes and wakes its
   waiters, and the cap still holds afterwards. *)
let test_memo_clear_and_shrink_mid_flight () =
  let entered = Atomic.make false and release = Atomic.make false in
  let lookup ~signature:_ =
    if not (Atomic.exchange entered true) then
      wait_until ~timeout:10.0 (fun () -> Atomic.get release);
    None
  in
  with_lookup lookup @@ fun () ->
  Fun.protect ~finally:(fun () -> Pipeline.set_cache_cap 1024) @@ fun () ->
  let w = wl ~c:64 ~k:64 () in
  let callers =
    List.init 3 (fun _ -> Domain.spawn (fun () -> Pipeline.conv_compiled_x86 w))
  in
  wait_until ~timeout:10.0 (fun () -> Atomic.get entered);
  Pipeline.clear_cache ();
  Pipeline.set_cache_cap 1;
  (* another workload compiles and publishes while the flight is open *)
  ignore (Pipeline.conv_compiled_x86 (wl ~c:32 ~k:32 ()) : Pipeline.compiled);
  Atomic.set release true;
  let ks = List.map Domain.join callers in
  check_bool "every caller returned one kernel" true (all_identical ks);
  check_int "the cap holds" 1 (Pipeline.cache_size ());
  check_bool "the flight's kernel is the cached one" true
    (Pipeline.conv_compiled_x86 w == List.hd ks)

let test_tensorize_rejects_inapplicable () =
  (* fp32 conv cannot use the integer instruction *)
  let op =
    Unit_dsl.Op_library.matmul ~n:16 ~m:16 ~k:16 ~a_dtype:Dtype.F32 ~b_dtype:Dtype.F32
      ~acc_dtype:Dtype.F32 ()
  in
  match
    Pipeline.tensorize ~spec:Unit_machine.Spec.cascadelake op
      (Unit_isa.Registry.find_exn "vnni.vpdpbusd")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fp32 op accepted by VNNI"

let test_channel_padding_costs () =
  (* 60 in-channels pad to 64, 120 out-channels pad to 128: the padded
     kernel does more work than the exactly-fitting one *)
  let exact = Pipeline.conv_time_x86 (wl ~c:64 ~k:128 ()) in
  let padded = Pipeline.conv_time_x86 (wl ~c:60 ~k:120 ()) in
  check_bool "padding is not free" true (padded >= exact *. 0.9)

let test_arm_dot_beats_neon_mla () =
  let w = wl ~c:64 ~k:64 () in
  let dot = Pipeline.conv_time_arm w in
  let neon = Pipeline.conv_time_arm ~intrin:"neon.mla.i16" w in
  check_bool "DOT kernels beat widening MLA" true (dot < neon)

let test_gpu_conv_time () =
  let t = Pipeline.conv_time_gpu (wl ~c:1024 ~hw:14 ~k:512 ~kernel:1 ()) in
  check_bool "positive and sub-millisecond" true (t > 0.0 && t < 1e-3)

let test_depthwise_never_tensorizes_but_costs () =
  let dw = { (wl ~c:64 ~k:64 ()) with Workload.groups = 64 } in
  let t = Pipeline.depthwise_time_cpu Unit_machine.Spec.cascadelake dw in
  check_bool "depthwise time positive" true (t > 0.0)

let test_conv3d_time () =
  let w3 =
    { Workload.w3_c = 64; w3_d = 4; w3_h = 14; w3_w = 14; w3_k = 64; w3_kernel = 3;
      w3_stride = 1; w3_padding = 1 }
  in
  check_bool "conv3d compiles and costs" true (Pipeline.conv3d_time_x86 w3 > 0.0);
  let small = { w3 with Workload.w3_c = 16; w3_k = 16; w3_h = 6; w3_w = 6 } in
  let arm = Pipeline.compiled Pipeline.Arm (Workload.Conv3 small) in
  check_bool "conv3d also tensorizes on ARM, with DOT" true
    (arm.Pipeline.c_intrin.Unit_isa.Intrin.name = "arm.udot" && Pipeline.seconds arm > 0.0)

(* ---------- baselines ---------- *)

let test_tuned_beats_onednn_on_friendly_shape () =
  let w = wl ~c:128 ~hw:16 ~k:128 () in
  check_bool "UNIT < oneDNN on a friendly kernel" true
    (Pipeline.conv_time_x86 w < Baselines.onednn_conv_time w)

let test_onednn_robust_on_adversarial_shape () =
  (* Table I #4: OHW 71 (prime) — nothing unrolls; the library floor wins *)
  let w = Unit_models.Table1.workloads.(3) in
  check_bool "oneDNN < UNIT on workload #4 (paper Section VI-B)" true
    (Baselines.onednn_conv_time w < Pipeline.conv_time_x86 w)

let test_onednn_hot_shapes () =
  check_bool "resnet50 conv is a hot shape" true
    (Baselines.is_onednn_hot_shape
       { Workload.c = 64; h = 56; w = 56; k = 64; kernel = 1; stride = 1; padding = 0;
         groups = 1 });
  check_bool "table1 #3 is not" false (Baselines.is_onednn_hot_shape Unit_models.Table1.workloads.(2))

let test_tvm_manual_between () =
  (* on most shapes: UNIT <= TVM-Manual (same codegen, no search) *)
  let w = wl ~c:256 ~hw:16 ~k:256 () in
  let unit_t = Pipeline.conv_time_x86 w in
  let tvm_t = Baselines.tvm_manual_x86_conv_time w in
  check_bool "UNIT <= TVM-Manual" true (unit_t <= tvm_t +. 1e-12)

let test_cudnn_strided_advantage () =
  (* Table I #15 *)
  let w = Unit_models.Table1.workloads.(14) in
  check_bool "cuDNN wins the strided workload (paper #15)" true
    (Baselines.cudnn_conv_time w < Pipeline.conv_time_gpu w)

let test_unit_gpu_beats_cudnn_on_deep_channels () =
  let w = Unit_models.Table1.workloads.(2) in
  check_bool "UNIT beats cuDNN on the deep-channel 1x1 (paper #3)" true
    (Pipeline.conv_time_gpu w < Baselines.cudnn_conv_time w)

(* ---------- latency model ---------- *)

let tiny_model () =
  let module B = Unit_graph.Graph.Builder in
  let b = B.create () in
  let x = B.input b ~shape:[ 16; 16; 16 ] Dtype.F32 in
  let y = B.relu b (B.bias_add b (B.conv2d b ~channels:32 ~kernel:3 ~padding:1 x)) in
  let z = B.global_avg_pool b y in
  B.finish b (B.softmax b (B.bias_add b (B.dense b ~units:10 z)))

let served_tiny () =
  Unit_graph.Passes.fuse
    (Unit_graph.Passes.quantize_structural ~act_dtype:Dtype.U8 (tiny_model ()))

let served_resnet18 () =
  Result.get_ok (Unit_core.Memplan.build_graph ~model:"resnet18" ~act_dtype:Dtype.U8)

(* Every node's modelled seconds, summed, is the model's latency on each
   platform's UNIT engine; the per-kind breakdown partitions it too. *)
let test_latency_breakdown_sums () =
  List.iter
    (fun g ->
      List.iter
        (fun engine ->
          let total = Latency.latency engine g in
          let rows = (Profile.report engine g).Profile.pr_rows in
          let sum = List.fold_left (fun t r -> t +. r.Profile.pr_modelled) 0.0 rows in
          check_bool (engine.Latency.e_name ^ ": rows sum to latency") true
            (Float.abs (sum -. total) < 1e-12);
          let b = Latency.latency_breakdown engine g in
          check_bool (engine.Latency.e_name ^ ": breakdown total = latency") true
            (Float.abs (Latency.breakdown_total b -. total) < 1e-12);
          check_bool "conv and overhead counted" true
            (b.Latency.b_conv > 0.0 && b.Latency.b_overhead > 0.0))
        [ Engines.x86_unit; Engines.arm_unit; Engines.gpu_unit ])
    [ served_tiny (); served_resnet18 () ]

(* Each conv2d and dense row carries its workload's MACs, the numerator
   of the report's GMAC/s column; other rows carry none. *)
let test_rows_carry_macs () =
  let g = served_tiny () in
  let rows = (Profile.report Engines.x86_unit g).Profile.pr_rows in
  List.iter
    (fun (n : Unit_graph.Graph.node) ->
      match List.find_opt (fun r -> r.Profile.pr_node = n.name) rows with
      | None -> ()
      | Some r ->
        let expected =
          match n.kind with
          | Unit_graph.Graph.Conv2d _ | Unit_graph.Graph.Dense _ ->
            Some (Workload.macs (Option.get (Workload.of_node g n)))
          | _ -> None
        in
        check_bool (n.name ^ ": MACs") true (r.Profile.pr_macs = expected))
    (Unit_graph.Graph.nodes g);
  check_bool "some row has MACs" true
    (List.exists (fun r -> Option.is_some r.Profile.pr_macs) rows)

(* One traced run: every row is measured, the residual (inputs, weights,
   the walk) is non-negative, and rows plus residual are the wall time.
   resnet18 runs on a 32x32 input, below its declared size, as the
   models benchmark does at smoke scale. *)
let test_measured_rows_sum () =
  let tiny = served_tiny () in
  List.iter
    (fun (g, input) ->
      let r = Profile.report ~input Engines.x86_unit g in
      let measured = List.map (fun r -> Option.get r.Profile.pr_measured) r.Profile.pr_rows in
      let residual = Option.get r.Profile.pr_residual in
      let wall = Option.get r.Profile.pr_wall in
      check_bool "rows measured" true (List.for_all (fun t -> t >= 0.0) measured);
      check_bool "residual non-negative" true (residual >= 0.0);
      check_bool "rows + residual = wall" true
        (Float.abs (List.fold_left ( +. ) residual measured -. wall) < 1e-9))
    [ (tiny, Unit_graph.Executor.default_input tiny ~seed:1);
      ( served_resnet18 (),
        Unit_codegen.Ndarray.init_float ~dtype:Dtype.F32 ~shape:[ 3; 32; 32 ] (fun i ->
            Float.of_int ((i.(0) + i.(1) + i.(2)) mod 7) /. 7.0) )
    ]

(* The report's rows are exactly the compute nodes of the graph the
   model commands serve: no input or weight, none missing, graph order,
   each kind carrying its fused epilogues. *)
let test_report_rows_are_served_nodes () =
  List.iter
    (fun model ->
      let g = Result.get_ok (Unit_core.Memplan.build_graph ~model ~act_dtype:Dtype.U8) in
      let compute =
        List.filter_map
          (fun (n : Unit_graph.Graph.node) ->
            match n.Unit_graph.Graph.kind with
            | Unit_graph.Graph.Input _ | Unit_graph.Graph.Weight _ -> None
            | _ -> Some n.Unit_graph.Graph.name)
          (Unit_graph.Graph.nodes g)
      in
      let rows = (Profile.report Engines.x86_unit g).Profile.pr_rows in
      Alcotest.(check (list string)) (model ^ " rows") compute
        (List.map (fun r -> r.Profile.pr_node) rows))
    [ "table1:5"; "resnet18" ];
  let g = Result.get_ok (Unit_core.Memplan.build_graph ~model:"table1:5" ~act_dtype:Dtype.U8) in
  Alcotest.(check (list string)) "table1:5 kinds"
    [ "quantize"; "conv2d+bias_add+relu+quantize"; "dequantize" ]
    (List.map (fun r -> r.Profile.pr_kind) (Profile.report Engines.x86_unit g).Profile.pr_rows)

let test_fusion_reduces_latency () =
  let q = Unit_graph.Passes.quantize_structural ~act_dtype:Dtype.U8 (tiny_model ()) in
  let fused = Unit_graph.Passes.fuse q in
  check_bool "fusion reduces modelled latency" true
    (Latency.latency Engines.x86_unit fused < Latency.latency Engines.x86_unit q)

let test_engine_ordering_resnet18 () =
  let g =
    Unit_graph.Passes.fuse
      (Unit_graph.Passes.quantize_structural ~act_dtype:Dtype.U8
         (Unit_models.Resnet.resnet18 ()))
  in
  let unit_t = Latency.latency Engines.x86_unit g in
  let tvm_t = Latency.latency Engines.x86_tvm_manual g in
  let mxnet_t = Latency.latency Engines.x86_mxnet_onednn g in
  check_bool "UNIT fastest" true (unit_t <= tvm_t && unit_t <= mxnet_t);
  check_bool "speedup vs MXNet within the paper's ballpark (1.05x..2.5x)" true
    (let s = mxnet_t /. unit_t in
     s > 1.05 && s < 2.5)

let test_structural_quantization_matches_calibrated_shapes () =
  let g = tiny_model () in
  let a = Unit_graph.Passes.quantize_structural ~act_dtype:Dtype.U8 g in
  let b = Unit_graph.Passes.quantize ~act_dtype:Dtype.U8 ~calibration_seed:1 g in
  check_bool "same node count" true (Unit_graph.Graph.arity a = Unit_graph.Graph.arity b);
  check_bool "same workloads" true
    (Workload.of_graph a = Workload.of_graph b)

let () =
  Alcotest.run "pipeline"
    [ ( "kernels",
        [ Alcotest.test_case "cached conv times" `Quick test_conv_time_positive_and_cached;
          Alcotest.test_case "workload kernel cache" `Quick test_workload_kernel_cache;
          Alcotest.test_case "inapplicable rejected" `Quick
            test_tensorize_rejects_inapplicable;
          Alcotest.test_case "channel padding" `Quick test_channel_padding_costs;
          Alcotest.test_case "dot vs mla" `Quick test_arm_dot_beats_neon_mla;
          Alcotest.test_case "gpu conv" `Quick test_gpu_conv_time;
          Alcotest.test_case "depthwise" `Quick test_depthwise_never_tensorizes_but_costs;
          Alcotest.test_case "conv3d" `Quick test_conv3d_time;
          Alcotest.test_case "target aliases" `Quick test_target_aliases;
          Alcotest.test_case "every field keys the kernel" `Quick
            test_every_field_keys_the_kernel;
          Alcotest.test_case "compiled shares helper kernels" `Quick
            test_compiled_shares_helper_kernels
        ] );
      ( "single-flight",
        [ Alcotest.test_case "tunes once under contention" `Quick
            test_memo_tunes_once_under_contention;
          Alcotest.test_case "leader failure hands over" `Quick
            test_memo_leader_failure_hands_over;
          Alcotest.test_case "rejection reaches every caller" `Quick
            test_memo_rejection_reaches_every_caller;
          Alcotest.test_case "clear and shrink mid-flight" `Quick
            test_memo_clear_and_shrink_mid_flight
        ] );
      ( "baselines",
        [ Alcotest.test_case "onednn loses on friendly shapes" `Quick
            test_tuned_beats_onednn_on_friendly_shape;
          Alcotest.test_case "onednn robust on #4" `Quick
            test_onednn_robust_on_adversarial_shape;
          Alcotest.test_case "hot shapes" `Quick test_onednn_hot_shapes;
          Alcotest.test_case "tvm manual" `Quick test_tvm_manual_between;
          Alcotest.test_case "cudnn strided #15" `Quick test_cudnn_strided_advantage;
          Alcotest.test_case "unit gpu deep channels #3" `Quick
            test_unit_gpu_beats_cudnn_on_deep_channels
        ] );
      ( "latency",
        [ Alcotest.test_case "breakdown sums" `Quick test_latency_breakdown_sums;
          Alcotest.test_case "measured rows sum" `Quick test_measured_rows_sum;
          Alcotest.test_case "rows carry MACs" `Quick test_rows_carry_macs;
          Alcotest.test_case "report rows are served nodes" `Quick
            test_report_rows_are_served_nodes;
          Alcotest.test_case "fusion reduces latency" `Quick test_fusion_reduces_latency;
          Alcotest.test_case "engine ordering" `Quick test_engine_ordering_resnet18;
          Alcotest.test_case "structural quantization" `Quick
            test_structural_quantization_matches_calibrated_shapes
        ] )
    ]
