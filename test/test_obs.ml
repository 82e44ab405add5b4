(* Tests for the observability layer (lib/obs): span recording and
   nesting, the disabled-is-a-no-op contract, counter/histogram
   snapshots, JSON printing/parsing round trips, Chrome trace emission,
   Parallel_oracle determinism across domain counts, the tensorize
   stage-span taxonomy, and golden output for the fixed-width summary
   tables and the Unit_tir.Diag printer. *)

open Unit_dtype
module Obs = Unit_obs.Obs
module Json = Unit_obs.Json
module Pipeline = Unit_core.Pipeline
module Parallel_oracle = Unit_codegen.Parallel_oracle

let () = Unit_isa.Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Run [f] with tracing enabled, restoring the disabled state and
   clearing recorded data afterwards even if [f] raises. *)
let traced f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ---------- spans ---------- *)

let test_disabled_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  check_bool "disabled" false (Obs.enabled ());
  let tok = Obs.start "never.recorded" in
  check_bool "start returns null_span" true (tok = Obs.null_span);
  Obs.stop tok;
  let c = Obs.counter "test.disabled.counter" in
  Obs.incr c;
  Obs.add c 10;
  check_int "counter did not move" 0 (Obs.value c);
  let h = Obs.histogram "test.disabled.hist" in
  Obs.observe h 1.0;
  check_int "histogram did not record" 0 (Obs.hist_stats h).Obs.h_count;
  check_bool "no spans recorded" true (Obs.spans () = [])

let test_span_nesting_and_force_close () =
  traced @@ fun () ->
  let a = Obs.start "outer" in
  let (_ : Obs.span) = Obs.start "inner" ~detail:"d" in
  (* closing the parent force-closes the still-open child *)
  Obs.stop a;
  let sps = Obs.spans () in
  check_int "two spans" 2 (List.length sps);
  List.iter
    (fun sp -> check_bool (sp.Obs.sp_name ^ " closed") true (Obs.span_closed sp))
    sps;
  let outer = List.find (fun sp -> sp.Obs.sp_name = "outer") sps in
  let inner = List.find (fun sp -> sp.Obs.sp_name = "inner") sps in
  check_int "inner's parent is outer" outer.Obs.sp_id inner.Obs.sp_parent;
  check_int "outer is a root" (-1) outer.Obs.sp_parent;
  check_bool "intervals nest" true
    (outer.Obs.sp_begin <= inner.Obs.sp_begin && inner.Obs.sp_end <= outer.Obs.sp_end);
  check_string "detail recorded" "d" inner.Obs.sp_detail

let test_with_span_closes_on_raise () =
  traced @@ fun () ->
  (match Obs.with_span "boom" (fun () -> raise Exit) with
   | exception Exit -> ()
   | () -> Alcotest.fail "expected Exit");
  match Obs.spans () with
  | [ sp ] -> check_bool "closed despite raise" true (Obs.span_closed sp)
  | sps -> Alcotest.failf "expected one span, got %d" (List.length sps)

(* ---------- counters and histograms ---------- *)

let test_counters_and_histograms () =
  traced @@ fun () ->
  let c = Obs.counter "test.counter" in
  check_bool "interning is idempotent" true (c == Obs.counter "test.counter");
  Obs.incr c;
  Obs.add c 4;
  check_int "value" 5 (Obs.value c);
  check_int "snapshot agrees" 5 (List.assoc "test.counter" (Obs.counters ()));
  let h = Obs.histogram "test.hist" in
  Obs.observe h 2.0;
  Obs.observe h 6.0;
  Obs.observe h 4.0;
  let s = Obs.hist_stats h in
  check_int "count" 3 s.Obs.h_count;
  check_bool "sum" true (s.Obs.h_sum = 12.0);
  check_bool "min" true (s.Obs.h_min = 2.0);
  check_bool "max" true (s.Obs.h_max = 6.0);
  Obs.reset ();
  check_int "reset zeroes counters" 0 (Obs.value c);
  check_int "reset zeroes histograms" 0 (Obs.hist_stats h).Obs.h_count

let test_histogram_percentiles () =
  traced @@ fun () ->
  let h = Obs.histogram "test.hist.pct" in
  (* each percentile is its bucket's bound clamped to the max: a true
     upper bound on the exact nearest-rank percentile of the whole
     stream, at most one power of two above it *)
  let check_bounds n =
    Obs.reset ();
    for i = 1 to n do
      Obs.observe h (float_of_int i)
    done;
    let s = Obs.hist_stats h in
    check_int (Printf.sprintf "count over 1..%d" n) n s.Obs.h_count;
    let sorted = Array.init n (fun i -> float_of_int (i + 1)) in
    List.iter
      (fun (q, hp) ->
        let exact = Obs.percentile sorted q in
        if not (exact <= hp && hp <= Float.min (2.0 *. exact) s.Obs.h_max) then
          Alcotest.failf "p%g over 1..%d: exact %g, histogram %g, max %g" q n
            exact hp s.Obs.h_max)
      [ (50.0, s.Obs.h_p50); (90.0, s.Obs.h_p90); (99.0, s.Obs.h_p99) ];
    check_bool (Printf.sprintf "percentiles ordered over 1..%d" n) true
      (s.Obs.h_min <= s.Obs.h_p50 && s.Obs.h_p50 <= s.Obs.h_p90
      && s.Obs.h_p90 <= s.Obs.h_p99 && s.Obs.h_p99 <= s.Obs.h_max)
  in
  check_bounds 100;
  check_bounds 10_000;
  (* a single observation reports itself, not its bucket's bound *)
  Obs.reset ();
  Obs.observe h 3.0;
  let s = Obs.hist_stats h in
  check_bool "single value p50" true (s.Obs.h_p50 = 3.0);
  check_bool "single value p99" true (s.Obs.h_p99 = 3.0)

let test_annotate () =
  traced @@ fun () ->
  let tok = Obs.start "annotated" ~detail:"op" in
  Obs.annotate tok "out=i32[16]";
  Obs.stop tok;
  (match Obs.spans () with
   | [ sp ] -> check_string "detail appended" "op out=i32[16]" sp.Obs.sp_detail
   | sps -> Alcotest.failf "expected one span, got %d" (List.length sps));
  (* no-ops must not raise *)
  Obs.annotate Obs.null_span "ignored";
  let tok = Obs.start "empty.detail" in
  Obs.annotate tok "";
  Obs.stop tok

(* ---------- Parallel_oracle determinism (UNIT_DOMAINS=1 vs 4) ---------- *)

let with_domains v f =
  let old = Sys.getenv_opt "UNIT_DOMAINS" in
  Unix.putenv "UNIT_DOMAINS" v;
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset; "" falls back to the recommended count *)
      Unix.putenv "UNIT_DOMAINS" (Option.value ~default:"" old))
    f

let oracle_run () =
  Obs.reset ();
  let items = List.init 37 Fun.id in
  let results =
    Parallel_oracle.map
      (fun i -> Obs.with_span "oracle.item" (fun () -> (i * i) + 3))
      items
  in
  let tasks = List.assoc "oracle.tasks" (Obs.counters ()) in
  let sps = List.filter (fun sp -> sp.Obs.sp_name = "oracle.item") (Obs.spans ()) in
  let per_domain = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      Hashtbl.replace per_domain sp.Obs.sp_domain
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_domain sp.Obs.sp_domain)))
    sps;
  let domain_sum = Hashtbl.fold (fun _ c acc -> c + acc) per_domain 0 in
  (results, tasks, List.length sps, domain_sum)

let test_parallel_oracle_determinism () =
  traced @@ fun () ->
  let r1, t1, n1, s1 = with_domains "1" oracle_run in
  let r4, t4, n4, s4 = with_domains "4" oracle_run in
  check_bool "results identical across domain counts" true (r1 = r4);
  check_int "oracle.tasks identical" t1 t4;
  check_int "one span per item (1 domain)" 37 n1;
  check_int "one span per item (4 domains)" 37 n4;
  check_int "per-domain counts sum to total (1)" n1 s1;
  check_int "per-domain counts sum to total (4)" n4 s4

(* ---------- tensorize stage taxonomy ---------- *)

let test_tensorize_stage_spans () =
  traced @@ fun () ->
  let op =
    Unit_dsl.Op_library.conv2d_nchwc ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
      ~acc_dtype:Dtype.I32 ~lanes:16 ~reduce_width:4
      { Unit_dsl.Op_library.in_channels = 8; in_height = 6; in_width = 6;
        out_channels = 16; kernel = 3; stride = 1 }
  in
  (match
     Pipeline.tensorize ~spec:Unit_machine.Spec.cascadelake op
       (Unit_isa.Registry.find_exn "vnni.vpdpbusd")
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "tensorize failed on a VNNI-friendly conv");
  let names = List.map (fun sp -> sp.Obs.sp_name) (Obs.spans ()) in
  List.iter
    (fun stage -> check_bool (stage ^ " present") true (List.mem stage names))
    Obs.tensorize_stages;
  check_bool "candidate sweep recorded" true
    (List.assoc "tuner.candidates" (Obs.counters ()) > 0)

(* ---------- JSON ---------- *)

let json_gen =
  let open QCheck.Gen in
  let finite_num =
    oneof
      [ map (fun n -> Json.Num (float_of_int n)) (int_range (-1000000) 1000000);
        map
          (fun (a, b) -> Json.Num (float_of_int a /. float_of_int b))
          (pair (int_range (-1000) 1000) (int_range 1 97))
      ]
  in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        finite_num;
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12))
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (1, map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (node (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:printable (int_range 0 8)) (node (depth - 1)))) )
        ]
  in
  node 3

let prop_json_round_trip =
  QCheck.Test.make ~name:"Json.parse inverts Json.to_string" ~count:200
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j -> Json.parse (Json.to_string j) = Ok j)

let test_json_parser_strictness () =
  (match Json.parse "1 2" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (match Json.parse "{\"a\":}" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing value accepted");
  check_bool "unicode escape decodes" true
    (Json.parse "\"\\u0041\"" = Ok (Json.Str "A"));
  check_bool "nan prints as null" true (Json.to_string (Json.Num Float.nan) = "null")

(* The encoder must emit valid UTF-8 JSON whatever bytes a [Str]
   carries: control characters \u-escaped, well-formed multi-byte
   sequences passed through, everything else replaced with U+FFFD. *)
let test_json_escaping () =
  let enc s = Json.to_string (Json.Str s) in
  check_string "quote" "\"\\\"\"" (enc "\"");
  check_string "backslash" "\"\\\\\"" (enc "\\");
  check_string "newline" "\"\\n\"" (enc "\n");
  check_string "tab" "\"\\t\"" (enc "\t");
  check_string "carriage return" "\"\\r\"" (enc "\r");
  check_string "NUL" "\"\\u0000\"" (enc "\x00");
  check_string "backspace" "\"\\u0008\"" (enc "\b");
  check_string "form feed" "\"\\u000c\"" (enc "\x0c");
  check_string "escape char" "\"\\u001b\"" (enc "\x1b");
  (* well-formed UTF-8 passes through untouched *)
  check_string "two-byte sequence" "\"\xc3\xa9\"" (enc "\xc3\xa9");
  check_string "three-byte sequence" "\"\xe2\x86\x92\"" (enc "\xe2\x86\x92");
  check_string "four-byte sequence" "\"\xf0\x9f\x99\x82\"" (enc "\xf0\x9f\x99\x82");
  (* malformed bytes become U+FFFD instead of corrupting the document *)
  let fffd = "\xef\xbf\xbd" in
  check_string "lone 0xff" ("\"" ^ fffd ^ "\"") (enc "\xff");
  check_string "stray continuation" ("\"" ^ fffd ^ "\"") (enc "\x80");
  check_string "truncated lead byte" ("\"" ^ fffd ^ "a\"") (enc "\xc3a");
  check_string "overlong encoding" ("\"" ^ fffd ^ fffd ^ "\"") (enc "\xc0\xaf");
  check_string "surrogate encoding"
    ("\"" ^ fffd ^ fffd ^ fffd ^ "\"")
    (enc "\xed\xa0\x80");
  check_string "beyond U+10FFFF"
    ("\"" ^ fffd ^ fffd ^ fffd ^ fffd ^ "\"")
    (enc "\xf4\x90\x80\x80");
  (* escapes still parse back; the round trip holds for valid UTF-8 *)
  check_bool "control chars round trip" true
    (Json.parse (enc "a\x01b\nc") = Ok (Json.Str "a\x01b\nc"));
  check_bool "utf-8 round trips" true
    (Json.parse (enc "caf\xc3\xa9 \xe2\x86\x92") = Ok (Json.Str "caf\xc3\xa9 \xe2\x86\x92"));
  match Json.parse (enc "bad \xff byte") with
  | Ok (Json.Str s) -> check_string "invalid byte replaced" ("bad " ^ fffd ^ " byte") s
  | _ -> Alcotest.fail "replacement output does not parse"

let test_chrome_trace_json () =
  traced @@ fun () ->
  Obs.with_span "a" (fun () -> Obs.with_span "b" ~detail:"x" (fun () -> ()));
  Obs.incr (Obs.counter "test.trace.counter");
  let j = Obs.chrome_trace () in
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok parsed ->
    check_bool "round trip" true (parsed = j);
    (match Option.bind (Json.member "traceEvents" parsed) Json.to_list with
     | Some events -> check_int "one event per closed span" 2 (List.length events)
     | None -> Alcotest.fail "no traceEvents array");
    (match
       Option.bind (Json.member "counters" parsed) (Json.member "test.trace.counter")
     with
     | Some (Json.Num 1.) -> ()
     | _ -> Alcotest.fail "counter missing from trace")

(* ---------- golden output: summary tables and Diag ---------- *)

(* The profile summary tables are fixed-width; these literals pin the
   column layout `unitc profile` prints. *)
let test_golden_span_table () =
  let aggs =
    [ { Obs.agg_name = "tensorize"; agg_count = 2; agg_total = 0.00375;
        agg_min = 0.0015; agg_max = 0.00225 };
      { Obs.agg_name = "tensorize.tune"; agg_count = 2; agg_total = 0.0024;
        agg_min = 0.001; agg_max = 0.0014 }
    ]
  in
  let expected =
    String.concat ""
      [ "span"; String.make 30 ' ';
        "   count     total ms       min ms       max ms\n";
        "tensorize"; String.make 25 ' ';
        "       2        3.750        1.500        2.250\n";
        "tensorize.tune"; String.make 20 ' ';
        "       2        2.400        1.000        1.400\n"
      ]
  in
  check_string "span table" expected (Format.asprintf "%a" Obs.pp_summary_aggs aggs)

let test_golden_counter_table () =
  let expected =
    String.concat ""
      [ "counter"; String.make 27 ' '; "        value\n";
        "pipeline.cache.hit"; String.make 16 ' '; "           42\n";
        "pipeline.cache.miss"; String.make 15 ' '; "            7\n"
      ]
  in
  check_string "counter table" expected
    (Format.asprintf "%a" Obs.pp_counters
       [ ("pipeline.cache.hit", 42); ("pipeline.cache.miss", 7) ])

let test_golden_diag () =
  let module Diag = Unit_tir.Diag in
  let err = Diag.errorf Diag.Bounds "store to %s may escape (%d > %d)" "acc" 17 16 in
  let warn = Diag.warnf Diag.Race "iterations of %s overlap" "ko" in
  check_string "error format" "[bounds] store to acc may escape (17 > 16)"
    (Diag.to_string err);
  check_string "warning format" "[race] warning: iterations of ko overlap"
    (Diag.to_string warn);
  Alcotest.(check (list string))
    "stable rule ids"
    [ "scope"; "bounds"; "canonical"; "tile"; "race"; "dep-carried";
      "tensorize-footprint"; "overflow" ]
    (List.map Diag.rule_id
       [ Diag.Scope; Diag.Bounds; Diag.Canonical; Diag.Tile; Diag.Race;
         Diag.Carried_dep; Diag.Tensorize_footprint; Diag.Overflow ])

(* ---------- monotonic clock ---------- *)

let test_monotonic_clock () =
  check_bool "monotonic stub works here" true Obs.monotonic_available;
  let a = Obs.now () in
  let b = Obs.now () in
  check_bool "clock does not step backwards" true (b >= a);
  traced @@ fun () ->
  for _ = 1 to 100 do
    Obs.with_span "clock.pin" (fun () -> ())
  done;
  let sps = Obs.spans () in
  check_int "all spans recorded" 100 (List.length sps);
  List.iter
    (fun sp ->
      check_bool "span duration >= 0" true (sp.Obs.sp_end >= sp.Obs.sp_begin))
    sps

(* ---------- always-on metrics ---------- *)

let test_always_on_metrics () =
  Obs.reset ();
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.reset ()) @@ fun () ->
  let c = Obs.counter ~always:true "test.always.counter" in
  Obs.incr c;
  Obs.add c 4;
  check_int "counter counts with tracing off" 5 (Obs.value c);
  let h = Obs.histogram ~always:true "test.always.hist" in
  Obs.observe h 3.0;
  check_int "histogram records with tracing off" 1 (Obs.hist_stats h).Obs.h_count;
  check_int "buckets count with tracing off" 1 (Obs.hist_buckets h).(Obs.bucket_index 3.0)

(* ---------- fixed log-spaced buckets ---------- *)

let test_bucket_index () =
  check_int "zero in first" 0 (Obs.bucket_index 0.0);
  check_int "negative in first" 0 (Obs.bucket_index (-5.0));
  check_int "one in first" 0 (Obs.bucket_index 1.0);
  check_int "two in second" 1 (Obs.bucket_index 2.0);
  check_int "three in third" 2 (Obs.bucket_index 3.0);
  check_int "huge in last" (Obs.n_buckets - 1) (Obs.bucket_index 1e30);
  check_bool "last bound is +Inf" true
    (Obs.bucket_bounds.(Obs.n_buckets - 1) = infinity);
  (* the invariant the exposition relies on: every observation is <= its
     bucket's bound and > the previous bound *)
  List.iter
    (fun x ->
      let i = Obs.bucket_index x in
      check_bool "within bound" true (x <= Obs.bucket_bounds.(i));
      if i > 0 then
        check_bool "above previous bound" true (x > Obs.bucket_bounds.(i - 1)))
    [ 2.0; 2.5; 3.0; 1023.9; 1024.0; 1024.1; 123456.7; 1e6 ]

let test_bucket_quantile () =
  traced @@ fun () ->
  check_bool "empty histogram is 0" true
    (Obs.bucket_quantile (Obs.histogram "test.bucket.empty") 99.0 = 0.0);
  let h = Obs.histogram "test.bucket.pct" in
  (* 10k observations 1..10000 — bucket counts cover the whole stream:
     nearest-rank p50 = 5000 -> bound 2^13, nearest-rank p99 = 9900 ->
     bound 2^14 *)
  for i = 1 to 10_000 do
    Obs.observe h (float_of_int i)
  done;
  check_bool "p50 bound exact-by-bucket" true
    (Obs.bucket_quantile h 50.0 = 8192.0);
  check_bool "p99 bound exact-by-bucket" true
    (Obs.bucket_quantile h 99.0 = 16384.0);
  check_bool "p100 is the max's bound" true
    (Obs.bucket_quantile h 100.0 = 16384.0)

(* ---------- trace context ---------- *)

let test_trace_context () =
  traced @@ fun () ->
  Obs.trace_begin "tc1";
  check_bool "known after begin" true (Obs.trace_known "tc1");
  let c = Obs.counter "test.trace.ctx.counter" in
  Obs.with_trace_id (Some "tc1") (fun () ->
      check_bool "context set" true (Obs.current_trace_id () = Some "tc1");
      Obs.with_span "tagged.span" (fun () -> ());
      Obs.incr c;
      Obs.add c 2;
      Obs.trace_diag "something happened");
  check_bool "context restored" true (Obs.current_trace_id () = None);
  (match Obs.trace_spans "tc1" with
   | Some [ sp ] ->
     check_string "span name" "tagged.span" sp.Obs.sp_name;
     check_string "span carries the trace id" "tc1" sp.Obs.sp_trace
   | Some sps -> Alcotest.failf "expected 1 trace span, got %d" (List.length sps)
   | None -> Alcotest.fail "trace unknown");
  check_int "counter attributed to the trace" 3
    (Obs.trace_counter_value "tc1" "test.trace.ctx.counter");
  check_bool "diag attributed" true
    (Obs.trace_diags "tc1" = Some [ "something happened" ]);
  (match Obs.trace_chrome "tc1" with
   | None -> Alcotest.fail "no chrome document"
   | Some j ->
     check_bool "top-level trace_id" true
       (Json.member "trace_id" j = Some (Json.Str "tc1"));
     (match Option.bind (Json.member "traceEvents" j) Json.to_list with
      | Some [ ev ] ->
        check_bool "event args tagged" true
          (Option.bind (Json.member "args" ev) (Json.member "trace_id")
          = Some (Json.Str "tc1"))
      | _ -> Alcotest.fail "expected exactly one traceEvent"));
  check_bool "unknown id has no document" true (Obs.trace_chrome "nope" = None)

let test_trace_attribution_with_tracing_off () =
  Obs.reset ();
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.reset ()) @@ fun () ->
  Obs.trace_begin "tc-off";
  let c = Obs.counter "test.trace.off.counter" in
  Obs.with_trace_id (Some "tc-off") (fun () -> Obs.incr c);
  check_int "global counter stays gated" 0 (Obs.value c);
  check_int "per-trace attribution stays on" 1
    (Obs.trace_counter_value "tc-off" "test.trace.off.counter")

let test_trace_fifo_eviction () =
  traced @@ fun () ->
  Obs.set_trace_cap 4;
  Fun.protect ~finally:(fun () -> Obs.set_trace_cap 256) @@ fun () ->
  for i = 1 to 10 do
    Obs.trace_begin (Printf.sprintf "evict-%d" i)
  done;
  check_bool "oldest evicted" false (Obs.trace_known "evict-1");
  check_bool "newest retained" true (Obs.trace_known "evict-10");
  Alcotest.(check (list string))
    "window is the newest 4, oldest first"
    [ "evict-7"; "evict-8"; "evict-9"; "evict-10" ]
    (Obs.trace_ids ())

(* ---------- Prometheus exposition ---------- *)

module Metrics = Unit_obs.Metrics

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_metrics_mangle () =
  check_string "dots to underscores" "unit_serve_latency_us"
    (Metrics.mangle "serve.latency_us");
  check_string "illegal chars to underscores" "unit_a_b_c" (Metrics.mangle "a-b c")

let test_metrics_render_validate () =
  traced @@ fun () ->
  Obs.incr (Obs.counter "test.metrics.counter");
  Obs.register_gauge "test.metrics.gauge" (fun () -> 7.5);
  let h = Obs.histogram "test.metrics.hist" in
  List.iter (Obs.observe h) [ 0.5; 3.0; 900.0; 1e9 ];
  let body = Metrics.render () in
  (match Metrics.validate body with
   | Ok () -> ()
   | Error m -> Alcotest.failf "render does not validate: %s" m);
  let has needle = check_bool needle true (contains ~needle body) in
  has "# TYPE unit_test_metrics_counter counter\nunit_test_metrics_counter 1\n";
  has "unit_test_metrics_gauge 7.5";
  has "# TYPE unit_test_metrics_hist histogram";
  has "unit_test_metrics_hist_bucket{le=\"+Inf\"} 4";
  has "unit_test_metrics_hist_count 4"

let test_metrics_validate_rejects () =
  let rejects label text =
    match Metrics.validate text with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (label ^ " accepted")
  in
  rejects "undeclared sample" "unit_x 1\n";
  rejects "bad metric name" "# TYPE unit_x counter\n9bad 1\n";
  rejects "bad value" "# TYPE unit_x counter\nunit_x one\n";
  rejects "non-cumulative buckets"
    "# TYPE unit_h histogram\nunit_h_bucket{le=\"1\"} 5\nunit_h_bucket{le=\"+Inf\"} \
     3\nunit_h_count 3\nunit_h_sum 1\n";
  rejects "+Inf bucket != count"
    "# TYPE unit_h histogram\nunit_h_bucket{le=\"+Inf\"} 3\nunit_h_count \
     4\nunit_h_sum 1\n";
  rejects "missing +Inf bucket" "# TYPE unit_h histogram\nunit_h_count 4\n";
  match
    Metrics.validate "# TYPE unit_ok counter\nunit_ok 3\n# free comment\n"
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid exposition rejected: %s" m

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "obs"
    [ ( "spans",
        [ Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "nesting and force-close" `Quick
            test_span_nesting_and_force_close;
          Alcotest.test_case "with_span closes on raise" `Quick
            test_with_span_closes_on_raise
        ] );
      ( "metrics",
        [ Alcotest.test_case "counters and histograms" `Quick
            test_counters_and_histograms;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "span annotate" `Quick test_annotate
        ] );
      ( "oracle",
        [ Alcotest.test_case "determinism across domain counts" `Quick
            test_parallel_oracle_determinism
        ] );
      ( "pipeline",
        [ Alcotest.test_case "tensorize stage spans" `Quick
            test_tensorize_stage_spans
        ] );
      ( "json",
        [ Alcotest.test_case "parser strictness" `Quick test_json_parser_strictness;
          Alcotest.test_case "string escaping" `Quick test_json_escaping;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_json
        ]
        @ qcheck [ prop_json_round_trip ] );
      ( "golden",
        [ Alcotest.test_case "span table" `Quick test_golden_span_table;
          Alcotest.test_case "counter table" `Quick test_golden_counter_table;
          Alcotest.test_case "diag printer" `Quick test_golden_diag
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic durations" `Quick test_monotonic_clock ] );
      ( "always-on",
        [ Alcotest.test_case "counts with tracing off" `Quick
            test_always_on_metrics
        ] );
      ( "buckets",
        [ Alcotest.test_case "bucket index" `Quick test_bucket_index;
          Alcotest.test_case "bucket quantile" `Quick test_bucket_quantile
        ] );
      ( "trace-context",
        [ Alcotest.test_case "tagging and attribution" `Quick test_trace_context;
          Alcotest.test_case "attribution with tracing off" `Quick
            test_trace_attribution_with_tracing_off;
          Alcotest.test_case "FIFO eviction" `Quick test_trace_fifo_eviction
        ] );
      ( "exposition",
        [ Alcotest.test_case "name mangling" `Quick test_metrics_mangle;
          Alcotest.test_case "render validates" `Quick test_metrics_render_validate;
          Alcotest.test_case "validator rejects" `Quick
            test_metrics_validate_rejects
        ] )
    ]
