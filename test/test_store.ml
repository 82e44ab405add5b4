(* The persistent tuning store and the warm-up scheduler: disk round
   trips, corrupt/stale recovery, content addressing, the pipeline's
   warm path (disk hit = no tuner sweep, bit-identical kernel),
   job-key dedup, bounded retries, and the bounded kernel cache. *)

open Unit_dtype
open Unit_dsl
module Inspector = Unit_inspector.Inspector
module Reorganize = Unit_rewriter.Reorganize
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Ndarray = Unit_codegen.Ndarray
module Compile = Unit_codegen.Compile
module Pipeline = Unit_core.Pipeline
module Workload = Unit_graph.Workload
module Store = Unit_store.Store
module Sharded = Unit_store.Sharded
module Warmup = Unit_store.Warmup
module Obs = Unit_obs.Obs
module Diag = Unit_tir.Diag

let () = Unit_isa.Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_store_path () =
  let path = Filename.temp_file "unit_store_test" ".jsonl" in
  Sys.remove path;
  path

let some_config = { Cpu_tuner.parallel_grain = 8; unroll_budget = 4 }

let put store ~signature ~config =
  Store.record store ~signature ~workload:"conv_test" ~isa:"vnni.vpdpbusd"
    ~target:"cascadelake" ~config ~cycles:123.0 ~diag_digest:"d41d8"

(* ---------- keys ---------- *)

let test_key_hashing () =
  let k1 = Store.key_of_signature "sig-A" in
  check_string "stable" k1 (Store.key_of_signature "sig-A");
  check_bool "distinct signatures, distinct keys" true
    (k1 <> Store.key_of_signature "sig-B");
  check_int "hex digest length" 32 (String.length k1)

(* ---------- round trip ---------- *)

let test_round_trip () =
  let path = temp_store_path () in
  let store, diags = Store.open_ path in
  check_int "fresh store loads clean" 0 (List.length diags);
  check_int "fresh store is empty" 0 (Store.size store);
  check_bool "lookup on empty misses" true
    (Store.lookup store ~signature:"sig-A" = None);
  put store ~signature:"sig-A" ~config:some_config;
  put store ~signature:"sig-B"
    ~config:{ Cpu_tuner.parallel_grain = 16; unroll_budget = 2 };
  (* overwrite: latest wins, still one live record per key *)
  put store ~signature:"sig-A"
    ~config:{ Cpu_tuner.parallel_grain = 32; unroll_budget = 1 };
  check_int "two live records" 2 (Store.size store);
  let reopened, diags2 = Store.open_ path in
  check_int "reopen loads clean" 0 (List.length diags2);
  check_int "reopen sees both keys" 2 (Store.size reopened);
  (match Store.lookup reopened ~signature:"sig-A" with
   | Some r ->
     check_int "latest config wins" 32 r.Store.r_config.Cpu_tuner.parallel_grain;
     check_string "key is the content address"
       (Store.key_of_signature "sig-A") r.Store.r_key;
     check_string "workload label round-trips" "conv_test" r.Store.r_workload
   | None -> Alcotest.fail "sig-A lost across reopen");
  (* compaction rewrites one line per key and stays loadable *)
  Store.save reopened;
  let compacted, diags3 = Store.open_ path in
  check_int "compacted loads clean" 0 (List.length diags3);
  check_int "compacted line count = live records" 2
    (Store.stats compacted).Store.st_loaded;
  let st = Store.stats reopened in
  check_int "hits counted" 1 st.Store.st_hits;
  Sys.remove path

(* ---------- corrupt / stale recovery ---------- *)

let append_raw path line =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc line;
  output_char oc '\n';
  close_out oc

let test_corrupt_and_stale_lines () =
  let path = temp_store_path () in
  let store, _ = Store.open_ path in
  put store ~signature:"sig-good" ~config:some_config;
  (* unparseable garbage *)
  append_raw path "{ this is not json";
  (* truncated record (a torn write) *)
  append_raw path "{\"v\":1,\"tuner\":1,\"key\":\"ab";
  (* wrong schema version: well-formed, must count stale not corrupt *)
  append_raw path "{\"v\":999,\"tuner\":1}";
  (* well-formed but the key is not the signature's content hash *)
  append_raw path
    (Printf.sprintf
       "{\"v\":1,\"tuner\":%d,\"key\":\"00000000000000000000000000000000\",\
        \"sig\":\"sig-evil\",\"workload\":\"w\",\"isa\":\"i\",\"target\":\"t\",\
        \"config\":{\"grain\":8,\"unroll\":4},\"cycles\":1,\"diags\":\"d\"}"
       Cpu_tuner.version);
  (* config fails validation (non-positive grain) *)
  append_raw path
    (Printf.sprintf
       "{\"v\":1,\"tuner\":%d,\"key\":\"%s\",\"sig\":\"sig-bad-config\",\
        \"workload\":\"w\",\"isa\":\"i\",\"target\":\"t\",\
        \"config\":{\"grain\":0,\"unroll\":4},\"cycles\":1,\"diags\":\"d\"}"
       Cpu_tuner.version
       (Store.key_of_signature "sig-bad-config"));
  let reopened, diags = Store.open_ path in
  let st = Store.stats reopened in
  check_int "good record survives" 1 st.Store.st_loaded;
  check_int "corrupt lines skipped, not fatal" 4 st.Store.st_corrupt;
  check_int "stale line counted separately" 1 st.Store.st_stale;
  check_int "one Diag.Store warning per skipped line" 5 (List.length diags);
  check_bool "warnings carry the store rule" true
    (List.for_all
       (fun (d : Diag.t) -> d.Diag.rule = Diag.Store && not (Diag.is_error d))
       diags);
  check_bool "good record still resolves" true
    (Store.lookup reopened ~signature:"sig-good" <> None);
  check_bool "tampered record does not" true
    (Store.lookup reopened ~signature:"sig-evil" = None);
  (* compaction drops the junk for good *)
  Store.save reopened;
  let clean, diags2 = Store.open_ path in
  check_int "after save the file is clean" 0 (List.length diags2);
  check_int "one live record" 1 (Store.size clean);
  Sys.remove path

(* ---------- torn tails ---------- *)

(* A crash mid-append leaves the file ending in part of a record.  Cut
   the file at every byte offset inside its last record: a reopen must
   load exactly the records before it (no hit for the torn one), and a
   record appended after that reopen must survive the next one.
   [reopen ()] opens the store afresh and returns its lookup, its record
   function and its corrupt-line count. *)
let check_torn_tails ~what ~path ~reopen ~committed ~torn =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length contents in
  let start =
    match String.rindex_from_opt contents (len - 2) '\n' with Some i -> i + 1 | None -> 0
  in
  for cut = start to len - 1 do
    Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub contents 0 cut));
    let expect_loaded step (lookup, _, _) =
      List.iter
        (fun s ->
          if not (lookup s) then Alcotest.failf "%s: cut at %d, %s: lost %s" what cut step s)
        committed;
      if lookup torn then Alcotest.failf "%s: cut at %d, %s: torn %s hits" what cut step torn
    in
    let store = reopen () in
    expect_loaded "reopen" store;
    let _, put, _ = store in
    put "sig-after-crash";
    let ((lookup, _, corrupt) as again) = reopen () in
    expect_loaded "append + reopen" again;
    if not (lookup "sig-after-crash") then
      Alcotest.failf "%s: cut at %d: the record appended after the crash is lost" what cut;
    check_int (Printf.sprintf "%s: cut at %d: no corrupt line left" what cut) 0 (corrupt ())
  done

let test_torn_tail () =
  let path = temp_store_path () in
  let store, _ = Store.open_ path in
  put store ~signature:"sig-A" ~config:some_config;
  put store ~signature:"sig-B" ~config:some_config;
  check_torn_tails ~what:"store" ~path ~committed:[ "sig-A" ] ~torn:"sig-B" ~reopen:(fun () ->
      let s, _ = Store.open_ path in
      ( (fun signature -> Store.lookup s ~signature <> None),
        (fun signature -> put s ~signature ~config:some_config),
        fun () -> (Store.stats s).Store.st_corrupt ));
  Sys.remove path;
  (* the sharded store, through its single shard *)
  let dir = temp_store_path () in
  let open_sharded () = fst (Sharded.open_ ~shards:1 dir) in
  let sharded = open_sharded () in
  let put_sharded s signature =
    Sharded.record s ~signature ~workload:"conv_test" ~isa:"vnni.vpdpbusd"
      ~target:"cascadelake" ~config:some_config ~cycles:123.0 ~diag_digest:"d41d8"
  in
  put_sharded sharded "sig-A";
  put_sharded sharded "sig-B";
  check_torn_tails ~what:"sharded" ~path:(Store.path (Sharded.shard sharded 0))
    ~committed:[ "sig-A" ] ~torn:"sig-B" ~reopen:(fun () ->
      let s = open_sharded () in
      ( (fun signature -> Sharded.lookup s ~signature <> None),
        put_sharded s,
        fun () -> (Sharded.stats s).Store.st_corrupt ));
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir) : int)

let test_config_json_round_trip () =
  match Cpu_tuner.config_of_json (Cpu_tuner.config_to_json some_config) with
  | Ok c -> check_bool "config round-trips" true (c = some_config)
  | Error m -> Alcotest.fail m

(* ---------- the pipeline warm path ---------- *)

let wl ?(c = 64) ?(hw = 8) ?(k = 64) () =
  { Workload.c; h = hw; w = hw; k; kernel = 3; stride = 1; padding = 0;
    groups = 1 }

let counter name = List.assoc name (Obs.counters ())

let tune_span_count () =
  List.fold_left
    (fun acc (a : Obs.agg) ->
      if a.Obs.agg_name = "tensorize.tune" then acc + a.Obs.agg_count else acc)
    0
    (Obs.aggregate_spans (Obs.spans ()))

let test_pipeline_warm_path () =
  let path = temp_store_path () in
  let store, _ = Store.open_ path in
  Pipeline.clear_cache ();
  Pipeline.set_tuning_store (Some (Store.pipeline_hooks store));
  let cold =
    Fun.protect
      ~finally:(fun () -> Pipeline.set_tuning_store None)
      (fun () -> Pipeline.conv_compiled_x86 (wl ()))
  in
  let st = Store.stats store in
  check_int "cold run misses" 1 st.Store.st_misses;
  check_int "cold run persists the tuned config" 1 st.Store.st_appends;
  (* simulate a new process: drop the in-memory kernel cache, reopen the
     store from disk *)
  Pipeline.clear_cache ();
  let store2, _ = Store.open_ path in
  Pipeline.set_tuning_store (Some (Store.pipeline_hooks store2));
  Fun.protect ~finally:(fun () -> Pipeline.set_tuning_store None) @@ fun () ->
  Obs.reset ();
  Obs.set_enabled true;
  let warm =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> Pipeline.conv_compiled_x86 (wl ()))
  in
  check_int "warm run is a disk hit" 1 (counter "store.disk.hit");
  check_int "warm run skips the tuner sweep entirely" 0
    (counter "tuner.candidates");
  check_int "warm run appends nothing" 0 (Store.stats store2).Store.st_appends;
  check_bool "same tuned config as the cold run" true
    (warm.Pipeline.c_tuned.Cpu_tuner.t_config
    = cold.Pipeline.c_tuned.Cpu_tuner.t_config);
  (* explain runs the same tensorize but never reads or writes the
     installed store *)
  let traffic () =
    let st = Store.stats store2 in
    (st.Store.st_appends, st.Store.st_hits, st.Store.st_misses)
  in
  let before = traffic () in
  let (_ : Unit_core.Explain.report) =
    Unit_core.Explain.conv (Unit_core.Explain.Cpu Pipeline.X86) (wl ())
  in
  check_bool "explain leaves the store's appends, hits and misses alone" true
    (traffic () = before);
  Pipeline.clear_cache ();
  Sys.remove path

(* property: a kernel recompiled from its stored config is bit-identical
   to the cold-tuned kernel on random inputs *)
let conv_op ?(c = 8) ?(k = 16) ?(hw = 6) () =
  Op_library.conv2d_nchwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
    ~acc_dtype:Dtype.I32 ~lanes:16 ~reduce_width:4
    { Op_library.in_channels = c; in_height = hw; in_width = hw;
      out_channels = k; kernel = 3; stride = 1 }

let prop_warm_start_bit_identical =
  QCheck.Test.make ~name:"warm-started kernel is bit-identical to cold-tuned"
    ~count:8
    QCheck.(triple (int_range 1 2) (int_range 1 2) (int_range 4 6))
    (fun (co, ko, hw) ->
      let op = conv_op ~c:(co * 4) ~k:(ko * 16) ~hw () in
      let intrin = Unit_isa.Registry.find_exn "vnni.vpdpbusd" in
      match Inspector.inspect op intrin with
      | Error _ -> false
      | Ok ap ->
        let r = Reorganize.apply op ap () in
        let spec = Unit_machine.Spec.cascadelake in
        let cold = Cpu_tuner.tune spec r in
        (* the full disk journey: config -> JSON -> config -> of_config *)
        let config =
          match
            Cpu_tuner.config_of_json
              (Cpu_tuner.config_to_json cold.Cpu_tuner.t_config)
          with
          | Ok c -> c
          | Error m -> failwith m
        in
        let warm = Cpu_tuner.of_config spec r config in
        let inputs =
          List.map
            (fun t -> (t, Ndarray.random_for_tensor ~seed:7 t))
            (Op.inputs op)
        in
        let out_cold = Ndarray.of_tensor_zeros op.Op.output in
        let out_warm = Ndarray.of_tensor_zeros op.Op.output in
        Compile.run cold.Cpu_tuner.t_func
          ~bindings:((op.Op.output, out_cold) :: inputs);
        Compile.run warm.Cpu_tuner.t_func
          ~bindings:((op.Op.output, out_warm) :: inputs);
        warm.Cpu_tuner.t_config = cold.Cpu_tuner.t_config
        && Ndarray.equal out_cold out_warm)

(* ---------- warm-up scheduler ---------- *)

let test_single_flight_dedup () =
  let compiles = Atomic.make 0 in
  let job =
    { Warmup.job_key = "dup-key";
      job_compile = (fun () -> Atomic.incr compiles)
    }
  in
  let report = Warmup.run ~domains:2 (List.init 4 (fun _ -> job)) in
  check_int "compiled exactly once" 1 (Atomic.get compiles);
  check_int "report: one compile" 1 report.Warmup.rp_compiled;
  check_int "report: three deduped" 3 report.Warmup.rp_deduped;
  check_int "no failures" 0 (List.length report.Warmup.rp_failures)

let test_retry_then_succeed () =
  let attempts = Atomic.make 0 in
  let flaky =
    { Warmup.job_key = "flaky";
      job_compile =
        (fun () ->
          if Atomic.fetch_and_add attempts 1 = 0 then failwith "transient")
    }
  in
  let report = Warmup.run ~domains:1 ~retries:2 [ flaky ] in
  check_int "compiled after the retry" 1 report.Warmup.rp_compiled;
  check_int "one retry spent" 1 report.Warmup.rp_retries;
  check_int "not a failure" 0 (List.length report.Warmup.rp_failures)

let test_retries_are_bounded () =
  let attempts = Atomic.make 0 in
  let dead =
    { Warmup.job_key = "dead";
      job_compile =
        (fun () ->
          Atomic.incr attempts;
          failwith "permanent")
    }
  in
  let report = Warmup.run ~domains:1 ~retries:2 [ dead ] in
  check_int "initial attempt + 2 retries" 3 (Atomic.get attempts);
  (match report.Warmup.rp_failures with
   | [ f ] ->
     check_string "failure keyed" "dead" f.Warmup.f_key;
     check_int "attempts reported" 3 f.Warmup.f_attempts
   | fs -> Alcotest.failf "expected 1 failure, got %d" (List.length fs));
  check_int "nothing compiled" 0 report.Warmup.rp_compiled

let test_rejection_is_skipped_not_retried () =
  let attempts = Atomic.make 0 in
  let rejected =
    { Warmup.job_key = "no-tensorize";
      job_compile =
        (fun () ->
          Atomic.incr attempts;
          invalid_arg "grouped conv does not tensorize")
    }
  in
  let report = Warmup.run ~domains:1 ~retries:5 [ rejected ] in
  check_int "deterministic rejection is never retried" 1 (Atomic.get attempts);
  check_int "no retries spent" 0 report.Warmup.rp_retries;
  check_int "not a failure" 0 (List.length report.Warmup.rp_failures);
  (match report.Warmup.rp_skipped with
   | [ (key, reason) ] ->
     check_string "skip keyed" "no-tensorize" key;
     check_string "skip reason surfaced" "grouped conv does not tensorize" reason
   | sk -> Alcotest.failf "expected 1 skip, got %d" (List.length sk))

let test_warmup_populates_store () =
  let path = temp_store_path () in
  let store, _ = Store.open_ path in
  Pipeline.clear_cache ();
  Pipeline.set_tuning_store (Some (Store.pipeline_hooks store));
  let jobs =
    match Warmup.jobs_of_table1 Pipeline.X86 ~index:3 () with
    | Ok jobs -> jobs
    | Error m -> Alcotest.fail m
  in
  let report =
    Fun.protect
      ~finally:(fun () -> Pipeline.set_tuning_store None)
      (fun () -> Warmup.run ~domains:2 jobs)
  in
  check_int "one workload compiled" 1 report.Warmup.rp_compiled;
  check_int "tuned config persisted" 1 (Store.size store);
  Pipeline.clear_cache ();
  Sys.remove path

(* A warm-up job and [Pipeline.compiled] name one kernel by one key: the
   job key is the memo key plus the engine, byte for byte, and after the
   job has run the same workload is a memo hit that tunes nothing. *)
let test_warmup_job_is_pipeline_memo_hit () =
  let wl = Unit_models.Table1.workloads.(2) in
  let jobs =
    match Warmup.jobs_of_table1 Pipeline.X86 ~index:3 () with
    | Ok jobs -> jobs
    | Error m -> Alcotest.fail m
  in
  check_string "job key" "x86/vnni.vpdpbusd/conv2d_c1056_h7_w7_k192_r1_s1_p0_g1/tuned#compiled"
    (List.hd jobs).Warmup.job_key;
  (match Warmup.jobs_of_model Pipeline.X86 "table1:3" with
   | Ok [ j ] ->
     check_string "jobs_of_model takes table1:N" (List.hd jobs).Warmup.job_key
       j.Warmup.job_key
   | _ -> Alcotest.fail "jobs_of_model table1:3 is not one job");
  check_string "arm dense key" "arm/arm.udot/dense_k512_u10/tuned#emitted"
    (Warmup.job ~engine:Pipeline.Emitted Pipeline.Arm
       (Workload.Fc { Workload.d_k = 512; d_units = 10 }))
      .Warmup.job_key;
  Pipeline.clear_cache ();
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Pipeline.clear_cache ())
  @@ fun () ->
  check_int "warm-up compiled the row" 1 (Warmup.run ~domains:1 jobs).Warmup.rp_compiled;
  let hits = counter "pipeline.cache.hit" and tunes = tune_span_count () in
  let (_ : Pipeline.compiled) = Pipeline.compiled Pipeline.X86 (Workload.Conv wl) in
  check_int "Pipeline.compiled after warm-up is one memo hit" (hits + 1)
    (counter "pipeline.cache.hit");
  check_int "and tunes nothing" tunes (tune_span_count ())

(* A compiled-engine job and an emitted-engine job for the same workload
   are different work: dedup must key on the engine too.  Regression for
   the bug where both shared a key and whichever arrived first silently
   swallowed the other engine's warmup.  They still share one memo key,
   so the two concurrent jobs tune once. *)
let test_engine_distinguishes_job_keys () =
  let workload = wl ~c:16 ~k:16 () in
  let jc = Warmup.job ~engine:Pipeline.Compiled Pipeline.X86 (Workload.Conv workload) in
  let je = Warmup.job ~engine:Pipeline.Emitted Pipeline.X86 (Workload.Conv workload) in
  check_bool "engine is part of the job key" true (jc.Warmup.job_key <> je.Warmup.job_key);
  (* same engine, same workload: still deduped *)
  Pipeline.clear_cache ();
  let report = Warmup.run ~domains:2 [ jc; jc ] in
  check_int "duplicate same-engine job compiled once" 1 report.Warmup.rp_compiled;
  check_int "duplicate same-engine job deduped" 1 report.Warmup.rp_deduped;
  (* different engines: both must run, nothing coalesces *)
  Pipeline.clear_cache ();
  Obs.reset ();
  Obs.set_enabled true;
  let report =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> Warmup.run ~domains:2 [ jc; je ])
  in
  check_int "both engines compiled" 2 report.Warmup.rp_compiled;
  check_int "nothing deduped across engines" 0 report.Warmup.rp_deduped;
  check_int "one tensorize.tune span across both engines" 1 (tune_span_count ());
  Pipeline.clear_cache ()

(* Two convs that differ only in padding share a display name but are
   two kernels: neither job dedups the other. *)
let test_padding_variants_are_two_jobs () =
  let workload = { (wl ~c:16 ~k:16 ()) with Workload.padding = 1 } in
  let jobs =
    List.map (fun w -> Warmup.job Pipeline.X86 (Workload.Conv w)) [ wl ~c:16 ~k:16 (); workload ]
  in
  Pipeline.clear_cache ();
  let report = Fun.protect ~finally:Pipeline.clear_cache (fun () -> Warmup.run ~domains:2 jobs) in
  check_int "both padding variants compiled" 2 report.Warmup.rp_compiled;
  check_int "nothing deduped" 0 report.Warmup.rp_deduped

(* ---------- bounded kernel cache ---------- *)

let test_cache_eviction () =
  Pipeline.clear_cache ();
  Pipeline.set_cache_cap 2;
  Fun.protect
    ~finally:(fun () ->
      Pipeline.set_cache_cap 1024;
      Pipeline.clear_cache ())
  @@ fun () ->
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  ignore (Pipeline.conv_time_x86 (wl ~k:16 ()) : float);
  ignore (Pipeline.conv_time_x86 (wl ~k:32 ()) : float);
  ignore (Pipeline.conv_time_x86 (wl ~k:48 ()) : float);
  check_bool "size stays at the cap" true (Pipeline.cache_size () <= 2);
  check_bool "evictions counted" true (counter "pipeline.cache.evict" >= 1);
  Pipeline.set_cache_cap 1;
  check_bool "shrinking the cap evicts immediately" true
    (Pipeline.cache_size () <= 1);
  (try
     Pipeline.set_cache_cap 0;
     Alcotest.fail "cap 0 accepted"
   with Invalid_argument _ -> ())

(* ---------- retry backoff schedule ---------- *)

(* [Warmup.backoff_s] is pure, so the whole schedule is pinned here:
   deterministic, jittered into [0.5, 1.0] x base, doubling per attempt,
   capped at 500 ms. *)
let test_backoff_schedule () =
  let b = Warmup.backoff_s in
  check_bool "deterministic" true
    (b ~key:"x86-vnni/conv" ~attempt:3 = b ~key:"x86-vnni/conv" ~attempt:3);
  check_bool "attempt 0 sleeps nothing" true (b ~key:"k" ~attempt:0 = 0.0);
  check_bool "attempt 1 lands in [10, 20] ms" true
    (b ~key:"k" ~attempt:1 >= 0.01 && b ~key:"k" ~attempt:1 <= 0.02);
  (* the base doubles per attempt while jitter stays in [0.5, 1.0], so
     two attempts apart the sleep strictly grows (below the cap) *)
  List.iter
    (fun key ->
      check_bool "grows across two attempts" true
        (b ~key ~attempt:3 > b ~key ~attempt:1))
    [ "a"; "b"; "x86-vnni/conv"; "arm-dense/fc" ];
  List.iter
    (fun attempt ->
      check_bool "capped at 500 ms" true (b ~key:"k" ~attempt <= 0.5))
    [ 1; 2; 5; 10; 30; 62 ];
  (* jitter desynchronizes concurrent retries: among a handful of job
     keys at the same attempt, at least two sleeps differ *)
  let sleeps =
    List.map (fun key -> b ~key ~attempt:2) [ "a"; "b"; "c"; "d"; "e" ]
  in
  check_bool "per-key jitter varies" true
    (List.exists (fun s -> s <> List.hd sleeps) sleeps)

(* ---------- native-kernel artifact records ---------- *)

let write_payload dir name content =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir name) in
  output_string oc content;
  close_out oc

let test_artifact_round_trip () =
  let path = temp_store_path () in
  let store, _ = Store.open_ path in
  let dir = Store.artifacts_dir store in
  let digest = Digest.to_hex (Digest.string "payload-one") in
  write_payload dir "k1.cmxs" "payload-one";
  Store.artifact_record store ~key:"k1" ~signature:"sig-A" ~file:"k1.cmxs"
    ~bytes:11 ~digest;
  (match Store.artifact_lookup store ~key:"k1" with
   | Some a ->
     check_string "payload file" "k1.cmxs" a.Store.a_file;
     check_int "payload bytes" 11 a.Store.a_bytes;
     check_string "payload digest" digest a.Store.a_digest;
     check_int "stamped with the current emitter version"
       Unit_codegen.Emit.version a.Store.a_emitter;
     check_string "stamped with the current compiler" Sys.ocaml_version
       a.Store.a_compiler
   | None -> Alcotest.fail "freshly recorded artifact is not live");
  (* artifact lines share the JSONL file with tuning records and
     dispatch on their "kind" member *)
  put store ~signature:"sig-A" ~config:some_config;
  (* a current-version record without a payload digest is never live *)
  append_raw path
    (Printf.sprintf
       "{\"kind\":\"artifact\",\"v\":1,\"key\":\"nodigest\",\"sig\":\"sig-D\",\
        \"emitter\":%d,\"compiler\":%S,\"file\":\"k1.cmxs\",\"bytes\":11}"
       Unit_codegen.Emit.version Sys.ocaml_version);
  let reopened, diags = Store.open_ path in
  check_int "reopen loads clean" 0 (List.length diags);
  check_int "two artifact records after reopen" 2
    (Store.stats reopened).Store.st_artifacts;
  check_int "one tuning record after reopen" 1 (Store.size reopened);
  check_bool "artifact live after reopen" true
    (Store.artifact_lookup reopened ~key:"k1" <> None);
  check_bool "digest-less record is not live" true
    (Store.artifact_lookup reopened ~key:"nodigest" = None);
  Sys.remove (Filename.concat dir "k1.cmxs");
  Sys.remove path

let test_artifact_gc () =
  let path = temp_store_path () in
  let store, _ = Store.open_ path in
  let dir = Store.artifacts_dir store in
  write_payload dir "keep.cmxs" "live-payload";
  Store.artifact_record store ~key:"keep" ~signature:"sig-A" ~file:"keep.cmxs"
    ~bytes:12 ~digest:(Digest.to_hex (Digest.string "live-payload"));
  (* a record whose payload vanished is dead: invisible to lookup,
     dropped by gc *)
  write_payload dir "gone.cmxs" "doomed";
  Store.artifact_record store ~key:"gone" ~signature:"sig-B" ~file:"gone.cmxs"
    ~bytes:6 ~digest:(Digest.to_hex (Digest.string "doomed"));
  Sys.remove (Filename.concat dir "gone.cmxs");
  check_bool "missing payload is not live" true
    (Store.artifact_lookup store ~key:"gone" = None);
  (* a stale emitter version is data, not a load error: iterable but
     never live, and gc fodder *)
  append_raw path
    (Printf.sprintf
       "{\"kind\":\"artifact\",\"v\":1,\"key\":\"old\",\"sig\":\"sig-C\",\
        \"emitter\":0,\"compiler\":%S,\"file\":\"old.cmxs\",\"bytes\":3}"
       Sys.ocaml_version);
  write_payload dir "old.cmxs" "old";
  write_payload dir "orphan.cmxs" "unreferenced";
  let reopened, diags = Store.open_ path in
  check_int "stale emitter loads clean" 0 (List.length diags);
  check_bool "stale emitter is not live" true
    (Store.artifact_lookup reopened ~key:"old" = None);
  let r = Store.gc reopened in
  check_int "live record kept" 1 r.Store.gc_live;
  check_int "missing-file + stale-version records dropped" 2 r.Store.gc_dropped;
  (* old.cmxs (referenced only by the dropped record) and orphan.cmxs *)
  check_int "unreferenced payloads swept" 2 r.Store.gc_deleted_files;
  check_int "reclaimed bytes = 3 + 12" 15 r.Store.gc_reclaimed_bytes;
  check_bool "survivor still live" true
    (Store.artifact_lookup reopened ~key:"keep" <> None);
  (* gc compacted: a fresh open sees only the survivor *)
  let after, diags2 = Store.open_ path in
  check_int "compacted loads clean" 0 (List.length diags2);
  check_int "one artifact line left" 1 (Store.stats after).Store.st_artifacts;
  Sys.remove (Filename.concat dir "keep.cmxs");
  Sys.remove path

(* A well-formed .cmxs of a different kernel planted at the path a live
   record names must never run: the payload digest check rejects it, the
   kernel is recompiled and re-recorded, and the output is right. *)
let test_artifact_planted_payload () =
  match Unit_codegen.Emit_cache.available () with
  | Error _ -> ()
  | Ok () ->
    let module Emit = Unit_codegen.Emit in
    let module Emit_cache = Unit_codegen.Emit_cache in
    let module Tir = Unit_tir in
    let n = 16 in
    let kernel name f =
      let tin = Tensor.create ~name:"in" ~shape:[ n ] Dtype.I32 in
      let tout = Tensor.create ~name:"out" ~shape:[ n ] Dtype.I32 in
      let bin = Tir.Buffer.of_tensor tin and bout = Tir.Buffer.of_tensor tout in
      let i = Tir.Var.create "i" in
      { Tir.Lower.fn_name = name; fn_tensors = [ (tout, bout); (tin, bin) ];
        fn_output = bout; fn_iter_vars = [ (0, i) ];
        fn_body =
          Tir.Stmt.for_ i ~extent:n
            (Tir.Stmt.Store
               (bout, Tir.Texpr.var i, f (Tir.Texpr.load bin (Tir.Texpr.var i)) (Tir.Texpr.var i)))
      }
    in
    let good = kernel "planted_good" (fun x i -> Tir.Texpr.add (Tir.Texpr.mul x (Tir.Texpr.int_imm 3)) i) in
    let foreign = kernel "planted_foreign" (fun x _ -> Tir.Texpr.sub x (Tir.Texpr.int_imm 7)) in
    let bindings func =
      List.map
        (fun ((t : Tensor.t), (b : Tir.Buffer.t)) ->
          if Tir.Buffer.equal b func.Tir.Lower.fn_output then (t, Ndarray.of_tensor_zeros t)
          else (t, Ndarray.random_for_tensor ~seed:3 t))
        func.Tir.Lower.fn_tensors
    in
    let output func b = List.assoc (fst (List.hd func.Tir.Lower.fn_tensors)) b in
    let path = temp_store_path () in
    let store, _ = Store.open_ path in
    Emit_cache.set_artifact_hooks (Some (Store.emit_hooks store));
    Fun.protect ~finally:(fun () -> Emit_cache.set_artifact_hooks None) @@ fun () ->
    let stamp = string_of_float (Unix.gettimeofday ()) in
    let live func signature =
      let key = Emit_cache.artifact_key ~signature ~source:(snd (Emit.render func)) in
      (key, Store.artifact_lookup store ~key)
    in
    (* compile both kernels for real; the foreign payload is the plant *)
    let sig_foreign = "planted-foreign|" ^ stamp in
    Emit_cache.run ~signature:sig_foreign foreign ~bindings:(bindings foreign);
    let foreign_file =
      match live foreign sig_foreign with
      | _, Some a -> Filename.concat (Store.artifacts_dir store) a.Store.a_file
      | _, None -> Alcotest.fail "foreign kernel left no artifact"
    in
    let sig_good = "planted-good|" ^ stamp in
    let key, _ = live good sig_good in
    let planted = In_channel.with_open_bin foreign_file In_channel.input_all in
    write_payload (Store.artifacts_dir store) "planted.cmxs" planted;
    Store.artifact_record store ~key ~signature:sig_good ~file:"planted.cmxs"
      ~bytes:(String.length planted)
      ~digest:(Digest.to_hex (Digest.string "the payload the record was made for"));
    let was = Obs.enabled () in
    Obs.set_enabled true;
    let rejected = Obs.counter "emit.artifact.rejected" in
    let before = Obs.value rejected in
    let b_emit = bindings good in
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
        Emit_cache.run ~signature:sig_good good ~bindings:b_emit);
    let b_ref = bindings good in
    Compile.run good ~bindings:b_ref;
    check_bool "planted payload rejected" true (Obs.value rejected > before);
    check_bool "recompiled kernel is right" true
      (Ndarray.equal (output good b_ref) (output good b_emit));
    (match live good sig_good with
     | _, Some a ->
       check_bool "re-recorded with the fresh payload's digest" true
         (String.equal a.Store.a_digest
            (Digest.to_hex
               (Digest.file (Filename.concat (Store.artifacts_dir store) a.Store.a_file))))
     | _, None -> Alcotest.fail "recompiled kernel left no live artifact");
    ignore (Sys.command ("rm -rf " ^ Filename.quote (Store.artifacts_dir store)) : int);
    Sys.remove path

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "store"
    [ ( "disk",
        [ Alcotest.test_case "content-addressed keys" `Quick test_key_hashing;
          Alcotest.test_case "round trip + compaction" `Quick test_round_trip;
          Alcotest.test_case "corrupt and stale recovery" `Quick
            test_corrupt_and_stale_lines;
          Alcotest.test_case "torn tail dropped at every byte" `Quick test_torn_tail;
          Alcotest.test_case "config json round trip" `Quick
            test_config_json_round_trip
        ] );
      ( "warm path",
        [ Alcotest.test_case "disk hit skips the tuner sweep" `Quick
            test_pipeline_warm_path
        ]
        @ qcheck [ prop_warm_start_bit_identical ] );
      ( "scheduler",
        [ Alcotest.test_case "single-flight dedup" `Quick test_single_flight_dedup;
          Alcotest.test_case "retry then succeed" `Quick test_retry_then_succeed;
          Alcotest.test_case "retries bounded" `Quick test_retries_are_bounded;
          Alcotest.test_case "rejection skipped, not retried" `Quick
            test_rejection_is_skipped_not_retried;
          Alcotest.test_case "warmup populates the store" `Quick
            test_warmup_populates_store;
          Alcotest.test_case "engine distinguishes job keys" `Quick
            test_engine_distinguishes_job_keys;
          Alcotest.test_case "warm-up job is a memo hit" `Quick
            test_warmup_job_is_pipeline_memo_hit;
          Alcotest.test_case "padding variants are two jobs" `Quick
            test_padding_variants_are_two_jobs;
          Alcotest.test_case "retry backoff schedule" `Quick
            test_backoff_schedule
        ] );
      ( "artifacts",
        [ Alcotest.test_case "record / lookup / reopen" `Quick
            test_artifact_round_trip;
          Alcotest.test_case "gc drops stale + sweeps unreferenced" `Quick
            test_artifact_gc;
          Alcotest.test_case "planted payload never loads" `Quick
            test_artifact_planted_payload
        ] );
      ( "cache",
        [ Alcotest.test_case "bounded with FIFO eviction" `Quick
            test_cache_eviction
        ] )
    ]
