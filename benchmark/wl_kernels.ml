(* kernels: tuned tensorized x86 kernels for Table I rows #2, #3, #5,
   #13, #14 and #15 (1x1 and 3x3, stride 1 and 2, 6-40 M MACs), compiled
   once in set-up.  All measured time is spent in generated code: the
   tuner, store, executor and server are bypassed, so this workload moves
   with kernel code quality and should not move for compile or serve
   changes.

   Each round runs every row on the emitted engine and one closure-engine
   row (#2 and #15 alternate): a closure run takes ~16x longer, so
   running both every round would starve the emitted rows of samples.
   Every output is checked against the digest of the row's scalar
   reference lowering run on the closure engine (the tree-walker is too
   slow at these sizes). *)

module Pipeline = Unit_core.Pipeline
module Ndarray = Unit_codegen.Ndarray
module Workload = Unit_graph.Workload
module Op = Unit_dsl.Op

type row = {
  label : string;  (** "t2" for Table I row #2 *)
  macs : int;
  op : Op.t;
  tensorized : Unit_tir.Lower.func;
  signature : string;  (** emitted-engine key of the tensorized kernel *)
  scalar : Unit_tir.Lower.func;
  scalar_signature : string;
}

(* Smoke scale keeps each row's channels, kernel and stride but shrinks
   the input so the output is 2x2. *)
let workload scale index =
  let wl = Unit_models.Table1.workloads.(index - 1) in
  match scale with
  | Ctx.Full -> wl
  | Ctx.Smoke ->
    let hw = wl.Workload.kernel + wl.Workload.stride in
    { wl with Workload.h = hw; w = hw }

let prepare (ctx : Ctx.t) label signature func =
  match
    Ctx.span "emit_cache.prepare" (fun () -> Pipeline.prepare_emitted ~signature func)
  with
  | Ok () -> ()
  | Error e -> Ctx.fail ctx "%s: emission failed: %s" label e

(* Tensorize every row and native-compile it under signatures unique to
   the repetition, so each repetition pays the real ocamlopt + Dynlink. *)
let setup (ctx : Ctx.t) rep =
  (match Unit_codegen.Emit_cache.available () with
   | Ok () -> ()
   | Error e -> Ctx.fail ctx "native emission unavailable: %s" e);
  Pipeline.clear_cache ();
  List.map
    (fun index ->
      let c =
        Ctx.span "pipeline" (fun () ->
            Pipeline.conv_compiled_x86 (workload ctx.Ctx.scale index))
      in
      let op = c.Pipeline.c_op in
      let base =
        Pipeline.workload_signature ~spec:Unit_machine.Spec.cascadelake op
          c.Pipeline.c_intrin
      in
      let row =
        { label = Printf.sprintf "t%d" index;
          macs = Op.macs op;
          op;
          tensorized = c.Pipeline.c_tuned.Unit_rewriter.Cpu_tuner.t_func;
          signature = Printf.sprintf "benchmark-setup%d|tensorized|%s" rep base;
          scalar = Unit_tir.Lower.scalar_reference op;
          scalar_signature = Printf.sprintf "benchmark-setup%d|scalar|%s" rep base }
      in
      prepare ctx row.label row.signature row.tensorized;
      (* only the traced run times the scalar reference on this engine *)
      if ctx.Ctx.trace then prepare ctx row.label row.scalar_signature row.scalar;
      row)
    Metrics.kernel_rows

(* A fresh output per run, allocated before the clock starts. *)
let execute ~engine ?signature func row inputs =
  let out = Ndarray.of_tensor_zeros row.op.Op.output in
  fun () ->
    Pipeline.run_func ~engine ?signature func ~bindings:((row.op.Op.output, out) :: inputs);
    out

let median_s ctx cls = Stats.median (Ctx.samples ctx cls)

let layers (ctx : Ctx.t) rows ~closure_rows =
  let setup = Spans.aggregate (Spans.with_self (Ctx.setup_spans ctx)) in
  let gmacs rows cls =
    Stats.geomean
      (List.map
         (fun r -> Stats.ratio (float_of_int r.macs) (median_s ctx (cls ^ "." ^ r.label)) /. 1e9)
         rows)
  in
  let emitted_gmacs = gmacs rows "emitted" in
  Ctx.set_layer ctx "kernel.emitted_gmacs" emitted_gmacs;
  Ctx.set_layer ctx "kernel.compiled_gmacs" (gmacs closure_rows "closure");
  List.iter
    (fun r ->
      Ctx.set_layer ctx ("emit_cache.run_ms." ^ r.label) (median_s ctx ("emitted." ^ r.label) *. 1e3))
    rows;
  Ctx.set_layer ctx "emit_cache.peak_fraction"
    (Stats.ratio emitted_gmacs
       (Option.value ~default:0.0 (Hashtbl.find_opt ctx.Ctx.layers "host.peak_int_gmacs")));
  List.iter
    (fun (metric, span) -> Ctx.set_layer ctx metric (Spans.self_per_call setup span ~unit:1e3))
    [ ("emit_cache.render_ms", "emit.render");
      ("emit_cache.ocamlopt_ms", "emit.compile");
      ("emit_cache.dynlink_ms", "emit.dynlink") ];
  Ctx.set_layer ctx "emit_cache.prepare_ms"
    (Spans.total_per_call setup "bench.emit_cache.prepare" ~unit:1e3);
  List.iter
    (fun r ->
      Ctx.set_layer ctx ("closure.run_ms." ^ r.label) (median_s ctx ("closure." ^ r.label) *. 1e3))
    closure_rows;
  let scalar_ratio engine rows =
    Stats.geomean
      (List.map
         (fun r ->
           Stats.ratio
             (median_s ctx (engine ^ "." ^ r.label))
             (median_s ctx (engine ^ "_scalar." ^ r.label)))
         rows)
  in
  Ctx.set_layer ctx "emit_cache.scalar_ratio" (scalar_ratio "emitted" rows);
  Ctx.set_layer ctx "closure.scalar_ratio" (scalar_ratio "closure" closure_rows)

let run (ctx : Ctx.t) =
  let rows = Ctx.setup ctx ~upfront:1 ~per_round:1 (setup ctx) in
  (* the seed selects the input tensors *)
  let inputs =
    List.map
      (fun row ->
        ( row.label,
          List.map
            (fun t -> (t, Ndarray.random_for_tensor ~seed:ctx.Ctx.seed t))
            (Op.inputs row.op) ))
      rows
  in
  let inputs_of row = List.assoc row.label inputs in
  (* references are not timed, so they may use two domains *)
  let references =
    Ctx.untraced ctx (fun () ->
        Unit_codegen.Parallel_oracle.map
          ~domains:(Stdlib.min 2 (Domain.recommended_domain_count ()))
          (fun (row, go) -> (row.label, Ndarray.digest (go ())))
          (List.map
             (fun row ->
               (row, execute ~engine:Pipeline.Compiled row.scalar row (inputs_of row)))
             rows))
  in
  let check row engine out =
    Ctx.check ctx
      (String.equal (Ndarray.digest out) (List.assoc row.label references))
      "%s on the %s engine differs from the scalar reference" row.label engine
  in
  let timed_run cls ~engine ?signature ~layer func row =
    let go = execute ~engine ?signature func row (inputs_of row) in
    Option.iter
      (fun (out, _) -> check row cls out)
      (Ctx.op ctx (cls ^ "." ^ row.label) (fun () -> Ctx.span layer ~detail:row.label go))
  in
  Ctx.warmup ctx (fun () ->
      for _ = 1 to 2 do
        List.iter
          (fun row ->
            check row "emitted"
              (execute ~engine:Pipeline.Emitted ~signature:row.signature row.tensorized row
                 (inputs_of row) ()))
          rows
      done);
  let closure_rows =
    List.filter
      (fun row -> List.exists (fun i -> row.label = Printf.sprintf "t%d" i) Metrics.closure_rows)
      rows
  in
  Ctx.timed ctx (fun i ->
      List.iter
        (fun row ->
          timed_run "emitted" ~engine:Pipeline.Emitted ~signature:row.signature
            ~layer:"emit_cache" row.tensorized row;
          if ctx.Ctx.trace then
            timed_run "emitted_scalar" ~engine:Pipeline.Emitted
              ~signature:row.scalar_signature ~layer:"emit_cache" row.scalar row)
        rows;
      (* a traced run alternates traced rounds, so it steps the closure
         row every second round to give each row both kinds *)
      let step = if ctx.Ctx.trace then i / 2 else i in
      let row = List.nth closure_rows (step mod List.length closure_rows) in
      timed_run "closure" ~engine:Pipeline.Compiled ~layer:"compile" row.tensorized row;
      if ctx.Ctx.trace then
        timed_run "closure_scalar" ~engine:Pipeline.Compiled ~layer:"compile" row.scalar row);
  if ctx.Ctx.trace then layers ctx rows ~closure_rows
