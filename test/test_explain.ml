(* Tests for the explainability surface (lib/core/explain)
   and the perf-regression gate (lib/core/perf_gate): golden coverage
   reports per target, structured rejection reasons, diff semantics, and
   the benchmark-file schema lint. *)

module Explain = Unit_core.Explain
module Perf_gate = Unit_core.Perf_gate
module Inspector = Unit_inspector.Inspector
module Cost_report = Unit_machine.Cost_report
module Json = Unit_obs.Json

let () = Unit_isa.Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Table I row 3 (1-based), the acceptance workload of `unitc explain
   table1:3 --target x86`. *)
let wl3 = Unit_models.Table1.workloads.(2)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let render r = Format.asprintf "%a" Explain.pp r

let find_entry r isa =
  match List.find_opt (fun e -> e.Explain.ex_isa = isa) r.Explain.ex_entries with
  | Some e -> e
  | None -> Alcotest.failf "no entry for %s" isa

(* ---------- golden explain per target ---------- *)

let test_explain_x86 () =
  let r = Explain.conv (Explain.Cpu Unit_core.Pipeline.X86) wl3 in
  check_string "target" "x86" r.Explain.ex_target;
  check_bool "VNNI chosen" true (r.Explain.ex_chosen = Some "vnni.vpdpbusd");
  (* the acceptance criterion: a rejected ISA carries the concrete
     structured reason, not a bare "no" *)
  (match (find_entry r "avx512.vpmaddwd").Explain.ex_verdict with
   | Explain.Rejected
       (Inspector.Not_isomorphic
          { Inspector.mm_path; mm_instr; mm_op }) ->
     check_string "failing path" "body.lhs.arg" mm_path;
     check_string "instruction side" "access a:i16" mm_instr;
     check_string "operation side" "access a:u8" mm_op
   | _ -> Alcotest.fail "vpmaddwd should be rejected as not isomorphic");
  (match (find_entry r "amx.tdpbusd").Explain.ex_verdict with
   | Explain.Rejected (Inspector.No_feasible_mapping _) -> ()
   | _ -> Alcotest.fail "tdpbusd should fail mapping");
  let text = render r in
  List.iter
    (fun sub -> check_bool (sub ^ " in output") true (contains text sub))
    [ "ACCEPTED (chosen)"; "REJECTED";
      "not isomorphic: at body.lhs.arg the instruction has access a:i16 but \
       the operation has access a:u8";
      "roofline:"; "chosen: vnni.vpdpbusd" ]

let test_explain_arm () =
  let r = Explain.conv (Explain.Cpu Unit_core.Pipeline.Arm) wl3 in
  check_string "target" "arm" r.Explain.ex_target;
  (* u8 activations: the signed-dot baseline rejects on dtype, udot wins *)
  (match (find_entry r "arm.sdot").Explain.ex_verdict with
   | Explain.Rejected (Inspector.Not_isomorphic _) -> ()
   | _ -> Alcotest.fail "sdot should be rejected on dtype");
  (* explain keeps the u8 x i8 op for every ISA: the Fig. 12 baseline's
     i16 widening belongs to its kernel, not to the verdict *)
  (match (find_entry r "neon.mla.i16").Explain.ex_verdict with
   | Explain.Rejected (Inspector.Not_isomorphic _) -> ()
   | _ -> Alcotest.fail "neon.mla.i16 should be rejected on dtype");
  (match (find_entry r "sve256.udot").Explain.ex_verdict with
   | Explain.Accepted _ -> ()
   | _ -> Alcotest.fail "sve256.udot should be accepted");
  check_bool "a chosen ISA exists" true (r.Explain.ex_chosen <> None)

let test_explain_gpu () =
  let r = Explain.conv Explain.Gpu wl3 in
  check_string "target" "gpu" r.Explain.ex_target;
  check_int "single template entry" 1 (List.length r.Explain.ex_entries);
  match (find_entry r "wmma.implicit-gemm").Explain.ex_verdict with
  | Explain.Accepted { vd_report; _ } ->
    check_bool "attribution present" true
      (vd_report.Cost_report.cr_total > 0.0)
  | _ -> Alcotest.fail "the WMMA template should always apply"

let test_explain_json_round_trip () =
  let r = Explain.conv (Explain.Cpu Unit_core.Pipeline.X86) wl3 in
  let j = Explain.to_json r in
  match Json.parse (Json.to_string j) with
  | Error m -> Alcotest.failf "explain JSON does not parse: %s" m
  | Ok parsed ->
    check_bool "round trip" true (parsed = j);
    (match Option.bind (Json.member "chosen" parsed) Json.to_str with
     | Some "vnni.vpdpbusd" -> ()
     | _ -> Alcotest.fail "chosen missing from JSON");
    let isas =
      match Option.bind (Json.member "isas" parsed) Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "no isas array"
    in
    check_int "one object per platform ISA" (List.length r.Explain.ex_entries)
      (List.length isas)

(* ---------- perf gate ---------- *)

let kernel id cycles =
  { Perf_gate.k_id = id;
    k_workload = Printf.sprintf "wl%d" id;
    k_isa = "vnni.vpdpbusd";
    k_cycles = cycles;
    k_report =
      Cost_report.make ~compute:cycles ~stall:0.0 ~icache:0.0 ~fork_join:0.0
        ~memory:0.0 ~intensity:10.0 ~ridge:0.8
  }

let report kernels = { Perf_gate.pg_target = "x86"; pg_kernels = kernels }

let test_diff_semantics () =
  let old_report = report [ kernel 0 1000.0; kernel 1 2000.0; kernel 2 500.0 ] in
  (* identical: everything within tolerance *)
  let df =
    Perf_gate.diff_reports ~tolerance:2.0 ~old_report ~new_report:old_report
  in
  check_int "no regressions" 0 (List.length df.Perf_gate.df_regressions);
  check_int "all unchanged" 3 df.Perf_gate.df_unchanged;
  (* one kernel slower beyond tolerance, one faster, one gone, one new *)
  let new_report = report [ kernel 0 1100.0; kernel 1 1000.0; kernel 3 42.0 ] in
  let df = Perf_gate.diff_reports ~tolerance:2.0 ~old_report ~new_report in
  (match df.Perf_gate.df_regressions with
   | [ slow; missing ] ->
     check_int "slower kernel flagged" 0 slow.Perf_gate.d_id;
     check_bool "ten percent up" true
       (Float.abs (slow.Perf_gate.d_pct -. 10.0) < 1e-9);
     check_int "vanished kernel flagged" 2 missing.Perf_gate.d_id;
     check_bool "missing marker" true (missing.Perf_gate.d_new < 0.0)
   | rs -> Alcotest.failf "expected 2 regressions, got %d" (List.length rs));
  check_int "improvement found" 1 (List.length df.Perf_gate.df_improvements);
  check_int "added counted" 1 df.Perf_gate.df_added;
  (* within a generous tolerance the slowdown passes *)
  let df = Perf_gate.diff_reports ~tolerance:15.0 ~old_report ~new_report in
  check_int "only the missing kernel regresses at 15%" 1
    (List.length df.Perf_gate.df_regressions)

let test_report_round_trip_and_lint () =
  let r = report [ kernel 0 1000.0; kernel 1 2000.0 ] in
  check_bool "of_json inverts to_json" true
    (Perf_gate.of_json (Perf_gate.to_json r) = Ok r);
  let dir = Filename.temp_file "unit_perf" "" in
  Sys.remove dir;
  let path = dir ^ ".json" in
  Perf_gate.write path r;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      check_bool "read inverts write" true (Perf_gate.read path = Ok r);
      (match Perf_gate.validate_file path with
       | Ok desc -> check_bool "lint describes the report" true
                      (contains desc "perf report")
       | Error m -> Alcotest.failf "valid report failed lint: %s" m);
      (* a tampered schema tag must fail, not pass as some other shape *)
      let oc = open_out path in
      output_string oc "{\"schema\":\"unit-perf-report\",\"v\":1}";
      close_out oc;
      match Perf_gate.validate_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated report passed lint")

(* The substance gates of the checked-in BENCH schemas, pinned: one
   valid document per schema passes, and each mutation that breaks one
   gate fails with that gate's message. *)
let num x = Json.Num x

let set fields = function
  | Json.Obj kvs ->
    Json.Obj
      (List.map
         (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k fields)))
         kvs)
  | j -> j

let memplan_row ?ratio ?peak model naive arena =
  Json.Obj
    [ ("model", Json.Str model); ("naive_bytes", num naive);
      ("peak_bytes", num (Option.value ~default:arena peak));
      ("arena_bytes", num arena);
      ("reuse_ratio", num (Option.value ~default:(arena /. naive) ratio));
      ("slots", num 8.0)
    ]

let memplan rows =
  Json.Obj
    [ ("schema", Json.Str "unit-memplan"); ("v", num 1.0); ("models", Json.Arr rows) ]

let mobilenet_row = memplan_row "mobilenet1.0" 1000.0 800.0

let emit =
  Json.Obj
    [ ("schema", Json.Str "unit-emit"); ("workload", Json.Str "conv");
      ("macs", num 1e6); ("tree_walker_s", num 1.0); ("compiled_s", num 0.4);
      ("emitted_s", num 0.1); ("speedup_vs_compiled", num 4.0);
      ("compiled_tensorized_s", num 1.6); ("emitted_tensorized_s", num 0.05);
      ("tensorized_vs_scalar", num 0.5)
    ]

let serve =
  Json.Obj
    [ ("schema", Json.Str "unit-serve"); ("requests", num 2048.0);
      ("clients", num 8.0); ("domains", num 4.0);
      ("distinct_workloads", num 31.0); ("duplicate_tunes", num 0.0);
      ("coalesced", num 448.0); ("bit_identical", Json.Bool true);
      ("p50_us", num 268.0); ("p99_us", num 174224.0);
      ("exact_p50_us", num 263.0); ("exact_p99_us", num 174221.0)
    ]

let outcome ?(measured = num 1.2) id =
  Json.Obj
    [ ("id", Json.Str id); ("metric", Json.Str "speedup"); ("paper", num 1.3);
      ("measured", measured)
    ]

let outcomes rows =
  Json.Obj [ ("schema", Json.Str "unit-outcomes"); ("outcomes", Json.Arr rows) ]

let perf_report =
  Perf_gate.to_json (report [ kernel 0 1000.0; kernel 1 2000.0 ])

let negative_cycles = function
  | Json.Obj kvs ->
    Json.Obj
      (List.map
         (function
           | "kernels", Json.Arr (k :: ks) ->
             ("kernels", Json.Arr (set [ ("cycles", num (-1.0)) ] k :: ks))
           | kv -> kv)
         kvs)
  | j -> j

let test_substance_gates () =
  let cases =
    [ ("outcomes valid", outcomes [ outcome "fig8"; outcome "fig9" ],
       Ok "paper-outcomes file, 2 outcomes");
      ("outcome without measured",
       outcomes [ outcome "fig8"; outcome ~measured:(Json.Str "fast") "fig9" ],
       Error "field measured missing or not a number");
      ("perf report valid", perf_report, Ok "perf report, target x86, 2 kernels");
      ("perf report with negative cycles", negative_cycles perf_report,
       Error "field cycles is negative");
      ("untagged document", Json.Obj [ ("outcomes", Json.Arr []) ],
       Error "no schema tag (known tags: unit-perf-report, unit-outcomes");
      ("unknown tag", Json.Obj [ ("schema", Json.Str "unit-interp") ],
       Error "unknown schema tag \"unit-interp\"");
      ("memplan valid",
       memplan [ memplan_row "resnet18" 1000.0 500.0; mobilenet_row ],
       Ok "memory-plan benchmark");
      ("resnet18 arena at 61% of naive",
       memplan [ memplan_row "resnet18" 1000.0 610.0; mobilenet_row ],
       Error "gate: <= 60%");
      ("arena > naive",
       memplan
         [ memplan_row "resnet18" 1000.0 500.0;
           memplan_row "mobilenet1.0" 1000.0 1100.0 ],
       Error "exceeds naive");
      ("reuse_ratio <> arena/naive",
       memplan [ memplan_row ~ratio:0.4 "resnet18" 1000.0 500.0; mobilenet_row ],
       Error "reuse_ratio does not match");
      ("no resnet18 row", memplan [ mobilenet_row ], Error "resnet18 row missing");
      ("peak > arena",
       memplan
         [ memplan_row "resnet18" 1000.0 500.0;
           memplan_row ~peak:900.0 "mobilenet1.0" 1000.0 800.0 ],
       Error "mobilenet1.0: peak live bytes exceed the planned arena");
      ("emit valid", emit, Ok "emitted-engine benchmark");
      ("emitted > compiled", set [ ("emitted_s", num 0.5) ] emit,
       Error "not monotone");
      ("speedup_vs_compiled 2.9",
       set [ ("compiled_s", num 0.29); ("speedup_vs_compiled", num 2.9) ] emit,
       Error "gate: >= 3x");
      ("ratio <> compiled/emitted", set [ ("speedup_vs_compiled", num 5.0) ] emit,
       Error "does not match");
      ("tensorized slower than scalar",
       set [ ("emitted_tensorized_s", num 0.11); ("tensorized_vs_scalar", num 1.1) ] emit,
       Error "gate: <= 1.0");
      ("tensorized timing zero",
       set [ ("emitted_tensorized_s", num 0.0); ("tensorized_vs_scalar", num 0.0) ] emit,
       Error "field emitted_tensorized_s is not positive");
      ("tensorized ratio <> tensorized/scalar",
       set [ ("tensorized_vs_scalar", num 0.7) ] emit,
       Error "tensorized_vs_scalar does not match");
      ("serve valid", serve, Ok "serve soak benchmark");
      ("requests 1999", set [ ("requests", num 1999.0) ] serve,
       Error "gate: >= 2000");
      ("domains 3", set [ ("domains", num 3.0) ] serve, Error "gate: >= 4");
      ("duplicate_tunes 1", set [ ("duplicate_tunes", num 1.0) ] serve,
       Error "duplicate tuner sweep");
      ("coalesced > requests", set [ ("coalesced", num 2049.0) ] serve,
       Error "2049 coalesced requests out of 2048 served");
      ("bit_identical false", set [ ("bit_identical", Json.Bool false) ] serve,
       Error "diverged");
      ("p50 > p99", set [ ("p50_us", num 200000.0) ] serve,
       Error "latency percentiles implausible");
      ("exact p50 > exact p99", set [ ("exact_p50_us", num 200000.0) ] serve,
       Error "flight-recorder percentiles implausible")
    ]
  in
  let path = Filename.temp_file "unit_gate" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let errors =
    List.filter_map
      (fun (label, doc, want) ->
        let oc = open_out path in
        output_string oc (Json.to_string doc);
        close_out oc;
        let got = Perf_gate.validate_file path in
        (match (want, got) with
         | Ok sub, Ok desc | Error sub, Error desc ->
           if not (contains desc sub) then
             Alcotest.failf "%s: %S lacks %S" label desc sub
         | Ok _, Error m -> Alcotest.failf "%s: rejected: %s" label m
         | Error _, Ok desc -> Alcotest.failf "%s: passed the gate: %s" label desc);
        Result.fold ~ok:(fun _ -> None) ~error:(fun m -> Some (label, m)) got)
      cases
  in
  (* each gate speaks for itself: no two mutations share a message *)
  List.iter
    (fun (label, m) ->
      if List.length (List.filter (fun (_, m') -> String.equal m m') errors) > 1 then
        Alcotest.failf "%s: message %S is not unique to its gate" label m)
    errors

let () =
  Alcotest.run "explain"
    [ ( "explain",
        [ Alcotest.test_case "x86 coverage (table1:3)" `Quick test_explain_x86;
          Alcotest.test_case "arm coverage" `Quick test_explain_arm;
          Alcotest.test_case "gpu template" `Quick test_explain_gpu;
          Alcotest.test_case "JSON round trip" `Quick test_explain_json_round_trip
        ] );
      ( "perf-gate",
        [ Alcotest.test_case "diff semantics" `Quick test_diff_semantics;
          Alcotest.test_case "round trip and lint" `Quick
            test_report_round_trip_and_lint;
          Alcotest.test_case "substance gates" `Quick test_substance_gates
        ] )
    ]
