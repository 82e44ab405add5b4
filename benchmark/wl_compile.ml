(* compile: repeated cold-then-warm warm-ups of every zoo workload for
   both x86 and Arm (338 jobs, 264 compiled), each cycle into a fresh
   sharded store with the in-memory kernel cache cleared before each
   pass, plus native emission of 8 fixed tuned kernels under
   cycle-unique signatures, so every cycle pays a real ocamlopt and
   Dynlink.  No kernel executes: the time goes to the inspector,
   rewriter and tuner, the analyzer, the store, the single-flight table
   and ocamlopt — the workload for store, scheduler and single-flight
   changes. *)

module Pipeline = Unit_core.Pipeline
module Warmup = Unit_store.Warmup
module Sharded = Unit_store.Sharded
module Store = Unit_store.Store

type prepared = {
  jobs : Warmup.job list;
  emit : (Unit_tir.Lower.func * string) list;  (** tuned kernel, base signature *)
}

let setup (ctx : Ctx.t) _rep =
  Pipeline.clear_cache ();
  let jobs, emit_rows =
    match ctx.Ctx.scale with
    | Ctx.Full -> (Warmup.jobs_of_zoo Warmup.X86 @ Warmup.jobs_of_zoo Warmup.Arm, [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    | Ctx.Smoke ->
      let model target =
        match Warmup.jobs_of_model target "squeezenet" with
        | Ok jobs -> jobs
        | Error e -> failwith e
      in
      (model Warmup.X86 @ model Warmup.Arm, [ 15 ])
  in
  let emit =
    List.map
      (fun index ->
        let wl = Wl_kernels.workload ctx.Ctx.scale index in
        let c = Ctx.span "pipeline" (fun () -> Pipeline.conv_compiled_x86 wl) in
        ( c.Pipeline.c_tuned.Unit_rewriter.Cpu_tuner.t_func,
          Pipeline.workload_signature ~spec:Unit_machine.Spec.cascadelake c.Pipeline.c_op
            c.Pipeline.c_intrin ))
      emit_rows
  in
  { jobs; emit }

(* Canonical content of a store: every record's signature and config,
   sorted — equal across cycles iff tuning is deterministic. *)
let store_digest store =
  let lines = ref [] in
  Sharded.iter store (fun r ->
      lines :=
        (r.Store.r_signature ^ "="
        ^ Unit_obs.Json.to_string (Unit_rewriter.Cpu_tuner.config_to_json r.Store.r_config))
        :: !lines);
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort String.compare !lines)))

let layers (ctx : Ctx.t) ~dedup_ratio ~hit_ratio =
  let timed_self = Spans.with_self (Ctx.timed_spans ctx) in
  let timed = Spans.aggregate timed_self in
  List.iter
    (fun (metric, cls) ->
      Ctx.set_layer ctx metric (Stats.median (Ctx.samples ctx cls) *. 1e3))
    [ ("compile.cold_ms", "cold"); ("compile.warm_ms", "warm"); ("compile.emit_ms", "emit") ];
  List.iter
    (fun (metric, span) -> Ctx.set_layer ctx metric (Spans.self_per_call timed span ~unit:1e6))
    [ ("inspector.inspect_us", "tensorize.inspect");
      ("reorganize.apply_us", "tensorize.reorganize");
      ("cpu_tuner.tune_us", "tensorize.tune");
      ("cpu_tuner.lower_replace_us", "tensorize.lower_replace");
      ("analysis.analyze_us", "tensorize.analyze");
      ("cpu_tuner.from_config_us", "tensorize.from_config") ];
  Ctx.set_layer ctx "cpu_tuner.candidates_per_kernel"
    (Stats.ratio
       (float_of_int (Ctx.timed_counter ctx "tuner.candidates"))
       (float_of_int (Spans.count timed "tensorize.tune")));
  Ctx.set_layer ctx "store.hit_ratio" hit_ratio;
  Ctx.set_layer ctx "warmup.dedup_ratio" dedup_ratio;
  (* job time over the domains' wall time, across the traced cold passes *)
  let busy = ref 0.0 and capacity = ref 0.0 in
  List.iter
    (fun ((s : Unit_obs.Obs.span_record), _) ->
      if s.Unit_obs.Obs.sp_name = "bench.warmup" && s.Unit_obs.Obs.sp_detail = "cold" then begin
        capacity := !capacity +. (Spans.duration s *. float_of_int ctx.Ctx.domains);
        List.iter
          (fun ((x : Unit_obs.Obs.span_record), _) ->
            if x.Unit_obs.Obs.sp_name = "warmup.workload" then busy := !busy +. Spans.duration x)
          (Spans.within timed_self s)
      end)
    timed_self;
  Ctx.set_layer ctx "warmup.parallel_efficiency" (Stats.ratio !busy !capacity)

let run (ctx : Ctx.t) =
  let p = Ctx.setup ctx ~upfront:1 ~per_round:3 (setup ctx) in
  let expected_digest = ref None and expected_compiled = ref None in
  let dedup = ref [] and hits = ref [] in
  let cycle i =
    let dir = Filename.concat ctx.Ctx.work_dir (Printf.sprintf "compile-store-%d" i) in
    let store, diags = Sharded.open_ dir in
    Ctx.check ctx (diags = []) "cycle %d: fresh store reported diagnostics" i;
    Pipeline.set_tuning_store (Some (Sharded.pipeline_hooks store));
    Unit_codegen.Emit_cache.set_artifact_hooks (Some (Sharded.emit_hooks store));
    Fun.protect
      ~finally:(fun () ->
        Pipeline.set_tuning_store None;
        Unit_codegen.Emit_cache.set_artifact_hooks None;
        Files.rm_rf dir)
    @@ fun () ->
    let pass name =
      Pipeline.clear_cache ();
      Ctx.op ctx name
        ~per:(fun (r : Warmup.report) -> r.Warmup.rp_compiled)
        (fun () ->
          Ctx.span "warmup" ~detail:name (fun () -> Warmup.run ~domains:ctx.Ctx.domains p.jobs))
    in
    let report name (r : Warmup.report) =
      Ctx.check ctx
        (r.Warmup.rp_failures = [] && r.Warmup.rp_skipped = [])
        "cycle %d %s pass: %d failed, %d skipped" i name
        (List.length r.Warmup.rp_failures)
        (List.length r.Warmup.rp_skipped);
      (match !expected_compiled with
       | None -> expected_compiled := Some r.Warmup.rp_compiled
       | Some n ->
         Ctx.check ctx (n = r.Warmup.rp_compiled) "cycle %d %s pass compiled %d, expected %d" i
           name r.Warmup.rp_compiled n)
    in
    (match pass "cold" with
     | None -> ()
     | Some (cold, _) ->
       report "cold" cold;
       dedup := Stats.ratio (float_of_int cold.Warmup.rp_deduped) (float_of_int cold.Warmup.rp_jobs) :: !dedup;
       let digest = store_digest store in
       (match !expected_digest with
        | None -> expected_digest := Some digest
        | Some d -> Ctx.check ctx (String.equal d digest) "cycle %d: tuned configs differ from cycle 0" i);
       let before = (Sharded.stats store).Store.st_hits in
       (match pass "warm" with
        | None -> ()
        | Some (warm, _) ->
          report "warm" warm;
          let warm_hits = (Sharded.stats store).Store.st_hits - before in
          hits := Stats.ratio (float_of_int warm_hits) (float_of_int warm.Warmup.rp_compiled) :: !hits;
          Ctx.check ctx (warm_hits = warm.Warmup.rp_compiled)
            "cycle %d: warm pass hit the store %d times for %d kernels" i warm_hits
            warm.Warmup.rp_compiled));
    ignore
      (Ctx.op ctx "emit"
         ~per:(fun () -> List.length p.emit)
         (fun () ->
           List.iter
             (fun (func, base) ->
               let signature = Printf.sprintf "benchmark-cycle%d|%s" i base in
               match
                 Ctx.span "emit_cache.prepare" (fun () -> Pipeline.prepare_emitted ~signature func)
               with
               | Ok () -> ()
               | Error e -> failwith e)
             p.emit))
  in
  Ctx.warmup ctx (fun () -> cycle (-1));
  Ctx.timed ctx cycle;
  if ctx.Ctx.trace then
    layers ctx ~dedup_ratio:(Stats.median !dedup) ~hit_ratio:(Stats.median !hits)
