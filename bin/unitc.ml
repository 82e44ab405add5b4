(* unitc — the UNIT command-line driver.

   Subcommands expose each stage of the pipeline on a user-specified
   convolution/matmul: list and show instruction descriptions, run the
   Inspector, compile (Pipeline.tensorize) with IR dumps, and execute
   the tuned tensorized kernel against the scalar oracle. *)

open Cmdliner
open Unit_dtype
open Unit_dsl
module Inspector = Unit_inspector.Inspector
module Pipeline = Unit_core.Pipeline
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Cpu_model = Unit_machine.Cpu_model
module Obs = Unit_obs.Obs
module Json = Unit_obs.Json
module Diag = Unit_tir.Diag
module Store = Unit_store.Store
module Sharded = Unit_store.Sharded
module Warmup = Unit_store.Warmup
module Loader = Unit_isadsl.Loader

let () = Unit_isa.Defs.ensure_registered ()

(* ---------- shared arguments ---------- *)

let isa_arg =
  let doc = "Tensorized instruction name (see isa list)." in
  Arg.(value & opt string "vnni.vpdpbusd" & info [ "isa" ] ~docv:"NAME" ~doc)

let op_kind_arg =
  let doc = "Operation kind: conv2d, conv3d, matmul or dense." in
  Arg.(value & opt string "conv2d" & info [ "op" ] ~docv:"KIND" ~doc)

let int_opt name default doc = Arg.(value & opt int default & info [ name ] ~doc)

let channels_arg = int_opt "ic" 64 "Input channels."
let hw_arg = int_opt "hw" 14 "Input height = width (conv2d) / depth edge (conv3d)."
let out_channels_arg = int_opt "oc" 128 "Output channels."
let kernel_arg = int_opt "kernel" 3 "Convolution kernel size."
let stride_arg = int_opt "stride" 1 "Convolution stride."
let n_arg = int_opt "n" 64 "Matmul N."
let m_arg = int_opt "m" 64 "Matmul M."
let kdim_arg = int_opt "kdim" 64 "Matmul/dense reduction length."

let spec_arg =
  let doc = "Target CPU model: cascadelake (alias x86) or graviton2 (alias arm)." in
  Arg.(value & opt string "cascadelake" & info [ "target" ] ~docv:"CPU" ~doc)

(* ---------- persistent tuning store plumbing ---------- *)

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent tuning-store directory (created if absent).  Disk \
           hits replay the stored config and skip the tuner sweep; fresh \
           tunings are appended.")

let print_store_diags diags =
  List.iter (fun d -> Printf.printf "%s\n" (Diag.to_string d)) diags

(* One line and exit 1 with no tracing summary: an argument the command
   cannot use, or a failure in a command that never traces. *)
let or_die = function
  | Ok v -> v
  | Error msg -> Common.usage_error ("unitc: " ^ msg)

(* A failed result: one line and exit 1; a tracing summary still follows. *)
let fail msg =
  prerr_endline ("unitc: " ^ msg);
  exit 1

let target_or_die name = or_die (Pipeline.target_of_string name)

(* Checked before tracing starts, like the target and engine, so a bad
   name prints one error line and no all-zero summary. *)
let model_or_die model = ignore (or_die (Unit_models.Zoo.resolve model))

(* A CPU target or the GPU ([profile], [explain], [bench-report]). *)
let any_target_or_die name =
  match Unit_core.Explain.target_of_string name with
  | Some t -> t
  | None -> or_die (Error (Printf.sprintf "unknown target %s (x86, arm or gpu)" name))

let any_target_arg =
  Arg.(value & opt string "x86"
       & info [ "target" ] ~docv:"TARGET"
           ~doc:"x86 (cascadelake), arm (graviton2) or gpu (v100).")

(* A file or store that cannot be opened — a missing path, or a
   single-file store that needs store-migrate first — is one line and
   exit 1, not an uncaught exception. *)
let sys_or_die f = try f () with Sys_error msg -> or_die (Error msg)

(* ---------- declarative ISA packs (--isa-pack, uniform) ---------- *)

let isa_pack_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "isa-pack" ] ~docv:"FILE"
        ~doc:
          "Load a declarative .uisa instruction pack before running \
           (repeatable).  Pack instructions are parsed, validated and \
           registered alongside the builtins; re-registering identical \
           semantics under an existing name is an idempotent no-op, \
           conflicting semantics are a structured isa-pack error.")

(* Load every requested pack up front; warnings go to stderr, any error
   is fatal before the command proper starts. *)
let load_isa_packs paths =
  match Loader.load_files paths with
  | Ok infos ->
    List.iter
      (fun (info : Loader.pack_info) ->
        List.iter
          (fun d -> prerr_endline (Diag.to_string d))
          info.Loader.pk_warnings)
      infos
  | Error ds ->
    Common.usage_error
      (String.concat "\n" (List.map (fun d -> "unitc: " ^ Diag.to_string d) ds))

(* ---------- execution-engine selection (uniform across commands) ---------- *)

let engine_arg =
  Arg.(
    value & opt string "compiled"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: 'compiled' (closure-compiled fast path), \
           'emitted' (kernels pretty-printed as OCaml, built with ocamlopt \
           -shared, Dynlink'd, and content-addressed into the store; \
           degrades to the closure engine with a diagnostic when native \
           emission is unavailable) or 'reference' (tree-walking oracle).  \
           All three are bit-identical on analyzer-clean kernels.")

let parse_engine s =
  match Pipeline.engine_of_string s with
  | Ok e -> e
  | Error d -> or_die (Error (Diag.to_string d))

let with_store = Common.with_store ~prog:"unitc"

let lookup_intrin name =
  match Unit_isa.Registry.find name with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "unknown instruction %s (try isa list)" name)

(* Build the requested op with dtypes matching the instruction's operands. *)
let build_op ~kind ~intrin ~c ~hw ~k ~kernel ~stride ~n ~m ~kdim =
  let data_dtype, weight_dtype =
    match Unit_isa.Intrin.tensor_by_name intrin "a", Unit_isa.Intrin.tensor_by_name intrin "b" with
    | Some a, Some b -> (a.Tensor.dtype, b.Tensor.dtype)
    | _ -> (Dtype.U8, Dtype.I8)
  in
  let acc_dtype =
    (intrin.Unit_isa.Intrin.op).Op.output.Tensor.dtype
  in
  let lanes = Unit_isa.Intrin.output_lanes intrin in
  let lanes = if lanes > k then k else lanes in
  let reduce_width = Stdlib.max 1 (Unit_isa.Intrin.reduction_width intrin) in
  match kind with
  | "conv2d" ->
    Ok
      (Op_library.conv2d_nchwc ~data_dtype ~weight_dtype ~acc_dtype ~lanes
         ~reduce_width:(if reduce_width = 1 then 4 else reduce_width)
         { Op_library.in_channels = c; in_height = hw; in_width = hw;
           out_channels = k; kernel; stride })
  | "conv3d" ->
    Ok
      (Op_library.conv3d_ncdhwc ~data_dtype ~weight_dtype ~acc_dtype ~lanes
         ~reduce_width:(if reduce_width = 1 then 4 else reduce_width)
         { Op_library.c3_in_channels = c; c3_in_depth = hw; c3_in_height = hw;
           c3_in_width = hw; c3_out_channels = k; c3_kernel = kernel;
           c3_stride = stride })
  | "matmul" -> Ok (Op_library.matmul ~n ~m ~k:kdim ~a_dtype:data_dtype ~b_dtype:weight_dtype ~acc_dtype ())
  | "dense" -> Ok (Op_library.dense ~m ~k:kdim ~a_dtype:data_dtype ~b_dtype:weight_dtype ~acc_dtype ())
  | other -> Error (Printf.sprintf "unknown op kind %s" other)

(* ---------- isa lint / list / show (declarative packs) ---------- *)

let provenance_string name =
  match Unit_isa.Registry.provenance name with
  | Some (Unit_isa.Registry.Pack source) -> "pack:" ^ source
  | Some Unit_isa.Registry.Builtin | None -> "builtin"

(* Parse + elaborate each pack without registering anything; exit 1 on
   the first diagnostic error.  The @isa-smoke alias runs this over
   every checked-in pack. *)
let isa_lint files json =
  let results =
    List.map (fun path -> (path, Loader.check_file path)) files
  in
  let failed =
    List.exists (fun (_, r) -> Result.is_error r) results
  in
  if json then begin
    let entry (path, r) =
      match r with
      | Ok els ->
        Json.Obj
          [ ("pack", Json.Str path);
            ("ok", Json.Bool true);
            ( "instructions",
              Json.Arr
                (List.map
                   (fun (el : Unit_isadsl.Elab.elaborated) ->
                     Json.Obj
                       [ ( "name",
                           Json.Str el.Unit_isadsl.Elab.el_intrin.Unit_isa.Intrin.name );
                         ("digest", Json.Str el.Unit_isadsl.Elab.el_digest)
                       ])
                   els) );
            ( "warnings",
              Json.Arr
                (List.concat_map
                   (fun (el : Unit_isadsl.Elab.elaborated) ->
                     List.map
                       (fun d -> Json.Str (Diag.to_string d))
                       el.Unit_isadsl.Elab.el_warnings)
                   els) )
          ]
      | Error ds ->
        Json.Obj
          [ ("pack", Json.Str path);
            ("ok", Json.Bool false);
            ( "diagnostics",
              Json.Arr (List.map (fun d -> Json.Str (Diag.to_string d)) ds) )
          ]
    in
    print_endline (Json.to_string (Json.Arr (List.map entry results)))
  end
  else
    List.iter
      (fun (path, r) ->
        match r with
        | Ok els ->
          Printf.printf "%s: ok, %d instruction(s)\n" path (List.length els);
          List.iter
            (fun (el : Unit_isadsl.Elab.elaborated) ->
              Printf.printf "  %-22s %s\n"
                el.Unit_isadsl.Elab.el_intrin.Unit_isa.Intrin.name
                el.Unit_isadsl.Elab.el_digest;
              List.iter
                (fun d -> Printf.printf "  %s\n" (Diag.to_string d))
                el.Unit_isadsl.Elab.el_warnings)
            els
        | Error ds ->
          Printf.printf "%s: FAILED\n" path;
          List.iter (fun d -> Printf.printf "  %s\n" (Diag.to_string d)) ds)
      results;
  if failed then exit 1

(* Every registered instruction with its provenance and semantic digest
   (after loading any --isa-pack files). *)
let isa_list packs json =
  load_isa_packs packs;
  let intrins = Unit_isa.Registry.all () in
  if json then
    print_endline
      (Json.to_string
         (Json.Arr
            (List.map
               (fun (i : Unit_isa.Intrin.t) ->
                 Json.Obj
                   [ ("name", Json.Str i.Unit_isa.Intrin.name);
                     ( "platform",
                       Json.Str
                         (Unit_isa.Intrin.platform_to_string
                            i.Unit_isa.Intrin.platform) );
                     ("digest", Json.Str (Unit_isa.Intrin.semantic_digest i));
                     ("provenance", Json.Str (provenance_string i.Unit_isa.Intrin.name))
                   ])
               intrins)))
  else begin
    Printf.printf "%-22s %-9s %-34s %s\n" "name" "platform" "digest" "provenance";
    List.iter
      (fun (i : Unit_isa.Intrin.t) ->
        Printf.printf "%-22s %-9s %-34s %s\n" i.Unit_isa.Intrin.name
          (Unit_isa.Intrin.platform_to_string i.Unit_isa.Intrin.platform)
          (Unit_isa.Intrin.semantic_digest i)
          (provenance_string i.Unit_isa.Intrin.name))
      intrins
  end

(* Print registered instructions back out as a canonical .uisa pack
   (all of them when no names are given) — the round-trip surface:
   [unitc isa show | unitc isa lint /dev/stdin] must accept it. *)
let isa_show names packs =
  load_isa_packs packs;
  let intrins =
    match names with
    | [] -> Unit_isa.Registry.all ()
    | names -> List.map (fun n -> or_die (lookup_intrin n)) names
  in
  match Unit_isadsl.Print.pack intrins with
  | Ok text -> print_string text
  | Error d -> or_die (Error (Diag.to_string d))

(* ---------- inspect ---------- *)

let inspect kind isa c hw k kernel stride n m kdim =
  let intrin = or_die (lookup_intrin isa) in
  let op = or_die (build_op ~kind ~intrin ~c ~hw ~k ~kernel ~stride ~n ~m ~kdim) in
  Format.printf "operation:@.%a@.@." Op.pp op;
  match Inspector.inspect op intrin with
  | Ok ap -> Format.printf "%a@." Inspector.pp_applicability ap
  | Error r ->
    Format.printf "not applicable: %s@." (Inspector.rejection_to_string r);
    exit 1

(* ---------- compile ---------- *)

(* The route from an (operation, instruction) pair to its tuned kernel
   for compile and run: a rejection or an illegal schedule prints
   [failure_to_string] and exits 1. *)
let tensorize_or_die ~spec op intrin =
  match Pipeline.tensorize ~spec op intrin with
  | Ok c -> c.Pipeline.c_tuned
  | Error (Pipeline.Rejected _ as f) ->
    Format.printf "not applicable: %s@." (Pipeline.failure_to_string f);
    exit 1
  | Error f -> fail (Pipeline.failure_to_string f)

let compile kind isa target c hw k kernel stride n m kdim show_ir =
  let intrin = or_die (lookup_intrin isa) in
  let spec = Pipeline.target_spec (target_or_die target) in
  let op = or_die (build_op ~kind ~intrin ~c ~hw ~k ~kernel ~stride ~n ~m ~kdim) in
  let tuned = tensorize_or_die ~spec op intrin in
  Format.printf "schedule:@.%a@." Unit_dsl.Schedule.pp tuned.Cpu_tuner.t_schedule;
  if show_ir then
    Format.printf "@.tensor IR after replacement:@.%a@." Unit_tir.Stmt.pp
      tuned.Cpu_tuner.t_func.Unit_tir.Lower.fn_body;
  (* [tensorize_or_die] returned, so the checker passed the kernel *)
  Format.printf "@.validation: OK@.";
  let est = tuned.Cpu_tuner.t_estimate in
  Format.printf
    "@.config: parallel_grain=%d unroll_budget=%d@.estimated: %.0f cycles (%.3f us), %.1f MACs/cycle/core@."
    tuned.Cpu_tuner.t_config.Cpu_tuner.parallel_grain
    tuned.Cpu_tuner.t_config.Cpu_tuner.unroll_budget est.Cpu_model.est_cycles
    (est.Cpu_model.est_seconds *. 1e6)
    (Float.of_int (Op.macs op) /. est.Cpu_model.est_compute_cycles)

(* ---------- run (differential execution) ---------- *)

let run kind isa engine trace trace_out store packs c hw k kernel stride n m kdim =
  let engine = parse_engine engine in
  if trace || trace_out <> None then Common.enable_tracing ?trace_out ();
  (* after enable_tracing, so pipeline.isa.* counters land in the trace *)
  load_isa_packs packs;
  let intrin = or_die (lookup_intrin isa) in
  let op = or_die (build_op ~kind ~intrin ~c ~hw ~k ~kernel ~stride ~n ~m ~kdim) in
  with_store store @@ fun () ->
  (* the instruction's platform picks the machine model it is tuned for *)
  let spec =
    Pipeline.target_spec
      (match intrin.Unit_isa.Intrin.platform with
       | Unit_isa.Intrin.Arm -> Pipeline.Arm
       | _ -> Pipeline.X86)
  in
  (* always the tuned kernel, so what runs is what the daemon serves and a
     store replays: a disk hit replays, a miss sweeps and persists *)
  let func = (tensorize_or_die ~spec op intrin).Cpu_tuner.t_func in
  let inputs =
    List.map
      (fun t -> (t, Unit_codegen.Ndarray.random_for_tensor ~seed:1 t))
      (Op.inputs op)
  in
  let out_ref = Unit_codegen.Ndarray.of_tensor_zeros op.Op.output in
  let out_t = Unit_codegen.Ndarray.of_tensor_zeros op.Op.output in
  (* the emitted engine's persistent artifacts are keyed per kernel
     variant: the scalar oracle and the tuned kernel of one workload are
     different programs, and the tuned one runs under the signature a
     warm-up bakes it under *)
  Pipeline.run_func ~engine
    ~signature:("oracle|" ^ Pipeline.workload_signature ~spec op intrin)
    (Unit_tir.Lower.scalar_reference op)
    ~bindings:((op.Op.output, out_ref) :: inputs);
  Pipeline.run_func ~engine
    ~signature:(Pipeline.kernel_signature ~spec op intrin)
    func
    ~bindings:((op.Op.output, out_t) :: inputs);
  let ok = Unit_codegen.Ndarray.equal out_ref out_t in
  Format.printf "tensorized vs scalar reference (%s engine): %s@."
    (Pipeline.engine_to_string engine)
    (if ok then "IDENTICAL" else "MISMATCH");
  (* element-exact content hash — the cross-process bit-identity
     witness (the isa-smoke alias compares it across instructions) *)
  Format.printf "output digest: %s@." (Unit_codegen.Ndarray.digest out_t);
  Option.iter
    (fun d -> Format.printf "%s@." (Diag.to_string d))
    (Unit_codegen.Emit_cache.last_fallback ());
  if not ok then exit 1

(* ---------- models / table1 ---------- *)

let models () =
  List.iter
    (fun (name, build) ->
      let g = build () in
      let convs = Unit_models.Zoo.conv_workloads g in
      let macs =
        List.fold_left
          (fun acc (wl, count) ->
            acc + (count * Unit_graph.Workload.macs (Unit_graph.Workload.Conv wl)))
          0 convs
      in
      Printf.printf "%-14s %4d nodes, %3d distinct convs, %.2f GMACs\n" name
        (Unit_graph.Graph.arity g) (List.length convs)
        (Float.of_int macs /. 1e9))
    Unit_models.Zoo.all

let table1 () = Format.printf "%a@." Unit_models.Table1.pp_table ()

(* ---------- check (schedule legality / overflow lint) ---------- *)

module Analysis = Unit_analysis.Analysis
module Workload = Unit_graph.Workload

(* Hand-built illegal programs the checker must reject; each pairs a
   description and a (parameters, body) program with the rule expected
   to fire. *)
let counterexamples () =
  let open Unit_tir in
  let buf name size dtype = Buffer.create ~name ~dtype ~size () in
  let racy_write =
    (* two parallel iterations share each element of out *)
    let out = buf "out" 64 Dtype.I32 in
    let p = Var.create "p" in
    ( [ out ],
      Stmt.for_ p ~extent:8 ~kind:Stmt.Parallel
        (Stmt.Store (out, Texpr.div (Texpr.var p) (Texpr.int_imm 2), Texpr.int_imm 1)) )
  in
  let parallel_reduction =
    (* a carried accumulation scheduled parallel *)
    let acc = buf "acc" 4 Dtype.I32 in
    let x = buf "x" 8 Dtype.I32 in
    let p = Var.create "p" in
    ( [ acc; x ],
      Stmt.for_ p ~extent:8 ~kind:Stmt.Parallel
        (Stmt.Store
           ( acc,
             Texpr.int_imm 0,
             Texpr.add
               (Texpr.load acc (Texpr.int_imm 0))
               (Texpr.load x (Texpr.var p)) )) )
  in
  let vectorized_carried =
    (* every SIMD lane writes the same element, and it is no reduction *)
    let out = buf "out" 4 Dtype.I32 in
    let x = buf "x" 8 Dtype.I32 in
    let i = Var.create "i" in
    ( [ out; x ],
      Stmt.for_ i ~extent:8 ~kind:Stmt.Vectorized
        (Stmt.Store (out, Texpr.int_imm 0, Texpr.load x (Texpr.var i))) )
  in
  let u8_overflow =
    (* u8 x u8 products do not fit an i16 accumulator *)
    let out = buf "out16" 16 Dtype.I16 in
    let a = buf "a8" 16 Dtype.U8 in
    let b = buf "b8" 16 Dtype.U8 in
    let i = Var.create "i" in
    let product =
      Texpr.mul
        (Texpr.cast Dtype.I16 (Texpr.load a (Texpr.var i)))
        (Texpr.cast Dtype.I16 (Texpr.load b (Texpr.var i)))
    in
    ( [ out; a; b ],
      Stmt.for_ i ~extent:16
        (Stmt.Store (out, Texpr.var i, Texpr.add (Texpr.load out (Texpr.var i)) product)) )
  in
  let broadcast_tile =
    (* an output tile broadcasting along a spatial axis: lanes collide *)
    let out = buf "out" 64 Dtype.I32 in
    ( [ out ],
      Stmt.Intrin_call
        { intrin = "fake.mac";
          output =
            { Stmt.tile_buf = out; tile_base = Texpr.int_imm 0; tile_strides = [ ("x", 0) ] };
          inputs = []
        } )
  in
  [ ("parallel loop with overlapping writes", racy_write, Diag.Race);
    ("carried accumulation marked parallel", parallel_reduction, Diag.Race);
    ("vectorized loop with a non-reduction carried dep", vectorized_carried,
     Diag.Carried_dep);
    ("u8*u8 accumulation into i16", u8_overflow, Diag.Overflow);
    ("output tile broadcasting a spatial axis", broadcast_tile,
     Diag.Tensorize_footprint)
  ]

let fake_intrin_meta = function
  | "fake.mac" ->
    Some
      { Analysis.im_spatial = [ ("x", 16) ];
        im_reduce = [ ("r", 4) ];
        im_operands = [ Dtype.U8; Dtype.I8 ];
        im_accumulates = true
      }
  | _ -> None

let run_counterexamples () =
  let missed = ref 0 in
  List.iter
    (fun (what, (params, stmt), rule) ->
      Printf.printf "counterexample: %s\n" what;
      let diags = Analysis.check_stmt ~intrin:fake_intrin_meta ~params stmt in
      List.iter
        (fun d -> Printf.printf "  %s\n" (Unit_tir.Diag.to_string d))
        diags;
      if
        List.exists
          (fun (d : Unit_tir.Diag.t) ->
            Unit_tir.Diag.is_error d && d.Unit_tir.Diag.rule = rule)
          diags
      then Printf.printf "  -> rejected, as it must be\n"
      else begin
        incr missed;
        Printf.printf "  -> MISSED (expected a [%s] error)\n"
          (Unit_tir.Diag.rule_id rule)
      end)
    (counterexamples ());
  if !missed > 0 then begin
    Printf.printf "%d counterexample(s) slipped through the analyzer\n" !missed;
    exit 2
  end
  else begin
    Printf.printf "all counterexamples rejected; exiting non-zero (they are illegal)\n";
    exit 1
  end

let check target counterexamples_only trace store packs =
  let tgt = target_or_die target in
  if trace then Common.enable_tracing ();
  load_isa_packs packs;
  if counterexamples_only then run_counterexamples ()
  else begin
    with_store store @@ fun () ->
    let spec = Pipeline.target_spec tgt in
    let intrin = or_die (lookup_intrin (Pipeline.target_intrin tgt)) in
    let kernels = ref 0 and errors = ref 0 and warnings = ref 0 in
    (* [Zoo.conv_workloads] and [dense_workloads] are distinct by value
       within a model, so each kernel is checked once per row or model *)
    let check_op label op =
      let report diags =
        incr kernels;
        errors := !errors + List.length (Unit_tir.Diag.errors diags);
        warnings := !warnings + List.length (Unit_tir.Diag.warnings diags);
        List.iter
          (fun d -> Printf.printf "%-40s %s\n" label (Unit_tir.Diag.to_string d))
          diags
      in
      match Pipeline.tensorize ~spec op intrin with
      | Ok c -> report c.Pipeline.c_warnings
      | Error (Pipeline.Illegal diags) -> report diags
      | Error (Pipeline.Rejected _ as f) ->
        Printf.printf "%-40s skipped (%s)\n" label (Pipeline.failure_to_string f)
    in
    let check_conv label wl =
      check_op
        (Printf.sprintf "%s %s" label (Workload.name (Workload.Conv wl)))
        (Pipeline.conv_op intrin wl)
    in
    Array.iteri
      (fun i wl -> check_conv (Printf.sprintf "table1[%d]" (i + 1)) wl)
      Unit_models.Table1.workloads;
    let lanes = Unit_isa.Intrin.output_lanes intrin in
    let reduce_width = Unit_isa.Intrin.reduction_width intrin in
    List.iter
      (fun (name, build) ->
        let g = build () in
        List.iter (fun (wl, _) -> check_conv name wl) (Unit_models.Zoo.conv_workloads g);
        List.iter
          (fun (wl, _) ->
            check_op
              (Printf.sprintf "%s %s" name (Workload.name (Workload.Fc wl)))
              (Workload.dense_op ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8 ~lanes
                 ~reduce_width wl))
          (Unit_models.Zoo.dense_workloads g))
      Unit_models.Zoo.all;
    Printf.printf "checked %d tensorized kernels on %s: %d error(s), %d warning(s)\n"
      !kernels target !errors !warnings;
    if !errors > 0 then exit 1
  end

(* ---------- profile ---------- *)

module Latency = Unit_core.Latency

(* The model report on the served (quantized, fused) graph, under tracing.
   A CPU target first tensorizes and bakes each distinct conv/dense
   workload, so --engine emitted leaves emit.* spans and --store keeps the
   artifacts.  The span / counter summary prints at exit; --trace-out adds
   a Chrome trace. *)
let profile model target engine trace_out no_exec store packs =
  let engine = parse_engine engine in
  let tgt = any_target_or_die target in
  model_or_die model;
  Common.enable_tracing ?trace_out ();
  load_isa_packs packs;
  with_store store @@ fun () ->
  let act_dtype =
    match tgt with
    | Unit_core.Explain.Cpu t -> Pipeline.target_act_dtype t
    | Unit_core.Explain.Gpu -> Dtype.U8
  in
  let g = or_die (Unit_core.Memplan.build_graph ~model ~act_dtype) in
  (match tgt with
   | Unit_core.Explain.Gpu -> ()
   | Unit_core.Explain.Cpu t ->
     List.iter (fun (j : Warmup.job) -> j.job_compile ()) (Warmup.jobs_of_graph ~engine t g));
  let engines =
    let open Unit_baselines.Engines in
    match tgt with
    | Unit_core.Explain.Cpu Pipeline.X86 -> [ x86_unit; x86_tvm_manual; x86_mxnet_onednn ]
    | Unit_core.Explain.Cpu Pipeline.Arm -> [ arm_unit; arm_tvm_manual; arm_tvm_neon ]
    | Unit_core.Explain.Gpu -> [ gpu_unit; gpu_cudnn ]
  in
  let unit_engine = List.hd engines in
  let input = if no_exec then None else Some (Unit_graph.Executor.default_input g ~seed:1) in
  let r = Unit_core.Profile.report ?input unit_engine g in
  let modelled = Latency.latency unit_engine g in
  let wall = Option.value r.pr_wall ~default:0.0 in
  (* the measured rate of a conv or dense row: its MACs over its measured
     seconds *)
  let line ?macs name kind m t =
    let cell total = function
      | Some t -> Printf.sprintf "%12.1f %6.1f%%" (t *. 1e6) (100.0 *. t /. total)
      | None -> Printf.sprintf "%12s %7s" "-" "-"
    in
    let rate =
      match macs, t with
      | Some macs, Some t when t > 0.0 -> Printf.sprintf "%7.2f" (Float.of_int macs /. t /. 1e9)
      | _ -> Printf.sprintf "%7s" "-"
    in
    Printf.printf "  %-30s %-30s %s %s %s\n" name kind (cell modelled m) (cell wall t) rate
  in
  Printf.printf "%s on %s: modelled by %s, measured on the executor\n" model target
    unit_engine.Latency.e_name;
  Printf.printf "  %-30s %-30s %12s %7s %12s %7s %7s\n" "node" "kind" "model(us)" "share"
    "measured(us)" "share" "GMAC/s";
  List.iter
    (fun (row : Unit_core.Profile.row) ->
      line ?macs:row.pr_macs row.pr_node row.pr_kind (Some row.pr_modelled) row.pr_measured)
    r.pr_rows;
  line "(inputs, weights, walk)" "" None r.pr_residual;
  line "total" "" (Some modelled) r.pr_wall;
  Printf.printf "%s on %s (batch 1):\n" model target;
  let total e = Latency.latency e g in
  List.iter
    (fun e -> Printf.printf "  %-14s %10.3f ms\n" e.Latency.e_name (total e *. 1e3))
    engines;
  Printf.printf "  UNIT speedup: %s\n%!"
    (String.concat ", "
       (List.map
          (fun e -> Printf.sprintf "%.2fx vs %s" (total e /. modelled) e.Latency.e_name)
          (List.tl engines)))

(* ---------- warmup / store-stats ---------- *)

(* Pre-populate (or replay) the tuning store for a model, the whole zoo,
   or Table I, fanning compilation across domains.  A cold store records
   every tuned config; a warm re-run is pure disk hits — the tuner sweep
   never runs (no tensorize.tune spans under --trace). *)
let warmup model target engine store_path domains retries trace trace_out
    assert_hit packs =
  let engine = parse_engine engine in
  let tgt = target_or_die target in
  if model <> "table1" && model <> "zoo" then model_or_die model;
  if trace || trace_out <> None then Common.enable_tracing ?trace_out ();
  load_isa_packs packs;
  (match engine, Unit_codegen.Emit_cache.available () with
   | Pipeline.Emitted, Error reason ->
     Printf.printf
       "warmup: native emission unavailable (%s); tuning records only\n%!"
       reason
   | _ -> ());
  let jobs =
    match model with
    | "table1" -> or_die (Warmup.jobs_of_table1 ~engine tgt ())
    | "zoo" -> Warmup.jobs_of_zoo ~engine tgt
    | name -> or_die (Warmup.jobs_of_model ~engine tgt name)
  in
  let store, report =
    sys_or_die @@ fun () ->
    Sharded.with_installed store_path @@ fun store diags ->
    print_store_diags diags;
    (store, Warmup.run ?domains ~retries jobs)
  in
  Format.printf "%a@." Warmup.pp_report report;
  let st = Sharded.stats store in
  Printf.printf
    "store %s: %d shard(s), %d record(s), %d artifact(s) (%d loaded, %d \
     corrupt, %d stale skipped); this run: %d disk hit(s), %d miss(es), %d \
     append(s)\n%!"
    store_path (Sharded.shard_count store) st.Store.st_records
    st.Store.st_artifacts st.Store.st_loaded st.Store.st_corrupt
    st.Store.st_stale st.Store.st_hits st.Store.st_misses st.Store.st_appends;
  if assert_hit && st.Store.st_hits = 0 then
    fail "--assert-hit: no disk hit (the store was cold)";
  if report.Warmup.rp_failures <> [] then exit 1

(* store-stats and store-gc inspect an existing store; opening a missing
   path would silently create an empty one. *)
let open_existing_store file =
  if not (Sys.file_exists file) then or_die (Error (file ^ ": no such store"));
  sys_or_die (fun () -> Sharded.open_ file)

let store_stats file json =
  let store, diags = open_existing_store file in
  if not json then print_store_diags diags;
  let st = Sharded.stats store in
  let records = ref [] in
  Sharded.iter store (fun r -> records := r :: !records);
  let records =
    List.sort
      (fun (a : Store.record) (b : Store.record) ->
        compare
          (a.Store.r_target, a.Store.r_isa, a.Store.r_workload)
          (b.Store.r_target, b.Store.r_isa, b.Store.r_workload))
      !records
  in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("file", Json.Str file);
              ("shards", Json.Num (float_of_int (Sharded.shard_count store)));
              ("records", Json.Num (float_of_int st.Store.st_records));
              ("loaded", Json.Num (float_of_int st.Store.st_loaded));
              ("corrupt", Json.Num (float_of_int st.Store.st_corrupt));
              ("stale", Json.Num (float_of_int st.Store.st_stale));
              ( "diags",
                Json.Arr (List.map (fun d -> Json.Str (Diag.to_string d)) diags) );
              ( "configs",
                Json.Arr
                  (List.map
                     (fun (r : Store.record) ->
                       Json.Obj
                         [ ("target", Json.Str r.Store.r_target);
                           ("isa", Json.Str r.Store.r_isa);
                           ("workload", Json.Str r.Store.r_workload);
                           ("config", Cpu_tuner.config_to_json r.Store.r_config);
                           ("cycles", Json.Num r.Store.r_cycles)
                         ])
                     records) )
            ]))
  else begin
    Printf.printf
      "%s [%d shard(s)]: %d live record(s) (%d line(s) loaded, %d corrupt, %d \
       stale)\n"
      file (Sharded.shard_count store) st.Store.st_records st.Store.st_loaded
      st.Store.st_corrupt st.Store.st_stale;
    List.iter
      (fun (r : Store.record) ->
        Printf.printf "  %-12s %-16s %-40s grain=%-4d unroll=%-4d %12.0f cycles\n"
          r.Store.r_target r.Store.r_isa r.Store.r_workload
          r.Store.r_config.Cpu_tuner.parallel_grain
          r.Store.r_config.Cpu_tuner.unroll_budget r.Store.r_cycles)
      records
  end

(* ---------- store-gc / emit-status ---------- *)

let store_gc file json =
  let store, diags = open_existing_store file in
  if not json then print_store_diags diags;
  let r = Sharded.gc store in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("file", Json.Str file);
              ("shards", Json.Num (float_of_int (Sharded.shard_count store)));
              ("live", Json.Num (float_of_int r.Store.gc_live));
              ("dropped", Json.Num (float_of_int r.Store.gc_dropped));
              ("deleted_files", Json.Num (float_of_int r.Store.gc_deleted_files));
              ( "reclaimed_bytes",
                Json.Num (float_of_int r.Store.gc_reclaimed_bytes) )
            ]))
  else
    Printf.printf
      "store-gc %s: %d live artifact(s) kept, %d stale record(s) dropped, %d \
       file(s) deleted, %d bytes reclaimed\n"
      file r.Store.gc_live r.Store.gc_dropped r.Store.gc_deleted_files
      r.Store.gc_reclaimed_bytes

(* ---------- store-migrate ---------- *)

(* Legacy single-file store -> sharded directory.  Records and live
   artifacts are rehashed onto their owning shards; the legacy store is
   left untouched so the migration is trivially revertible. *)
let store_migrate legacy dir json =
  if not (Sys.file_exists legacy) then
    or_die (Error (legacy ^ ": no such store"));
  if Sys.file_exists legacy && Sys.is_directory legacy then
    or_die (Error (legacy ^ ": already a directory (expected a legacy JSONL store)"));
  let store, open_diags = sys_or_die (fun () -> Sharded.open_ dir) in
  let mg, legacy_diags = Sharded.migrate store ~legacy in
  let diags = open_diags @ legacy_diags in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("legacy", Json.Str legacy);
              ("dir", Json.Str dir);
              ("shards", Json.Num (float_of_int (Sharded.shard_count store)));
              ("records", Json.Num (float_of_int mg.Sharded.mg_records));
              ("artifacts", Json.Num (float_of_int mg.Sharded.mg_artifacts));
              ( "diags",
                Json.Arr (List.map (fun d -> Json.Str (Diag.to_string d)) diags) )
            ]))
  else begin
    print_store_diags diags;
    Printf.printf
      "store-migrate: %s -> %s (%d shard(s)): %d record(s), %d live \
       artifact(s) migrated\n"
      legacy dir (Sharded.shard_count store) mg.Sharded.mg_records
      mg.Sharded.mg_artifacts
  end

(* Exit 0 when the emitted engine can work here, 3 when it cannot — the
   @emit-smoke alias probes this to skip visibly instead of failing. *)
let emit_status () =
  match Unit_codegen.Emit_cache.available () with
  | Ok () ->
    Printf.printf "emitted engine: available (emitter v%d, ocaml %s)\n"
      Unit_codegen.Emit.version Sys.ocaml_version
  | Error reason ->
    Printf.printf "emitted engine: unavailable (%s)\n" reason;
    exit 3

(* ---------- trace-lint ---------- *)

(* Validate a Chrome trace emitted by --trace-out / profile: it parses as
   JSON and carries a traceEvents array, then one list of checks runs.
   With no option given, the checks default to the tensorize contract:
   every stage span present and a positive tuner.candidates counter.  Any
   --forbid-span / --count-span / --require-* option replaces that
   default (traces from commands that never tensorize — e.g. a warm
   `run` — have no stage spans to demand), and the OK line lists what
   was checked. *)
let trace_lint file forbid_spans require_counters count_spans require_tagged =
  let count_spans =
    List.map
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i ->
          let name = String.sub spec 0 i in
          let n = String.sub spec (i + 1) (String.length spec - i - 1) in
          (match int_of_string_opt n with
           | Some n when name <> "" && n >= 0 -> (name, n)
           | _ -> or_die (Error ("--count-span " ^ spec ^ ": expected NAME=N")))
        | None -> or_die (Error ("--count-span " ^ spec ^ ": expected NAME=N")))
      count_spans
  in
  let require_tagged =
    List.map
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i when i > 0 && i < String.length spec - 1 ->
          (String.sub spec 0 i,
           String.sub spec (i + 1) (String.length spec - i - 1))
        | _ ->
          or_die
            (Error ("--require-span-tagged " ^ spec ^ ": expected NAME=TRACE_ID")))
      require_tagged
  in
  let require_spans, require_counters =
    if forbid_spans = [] && require_counters = [] && count_spans = [] && require_tagged = []
    then (Obs.tensorize_stages, [ "tuner.candidates" ])
    else ([], require_counters)
  in
  match Json.parse (sys_or_die (fun () -> In_channel.with_open_bin file In_channel.input_all)) with
  | Error m -> or_die (Error (Printf.sprintf "%s does not parse as JSON: %s" file m))
  | Ok j ->
    let events =
      match Option.bind (Json.member "traceEvents" j) Json.to_list with
      | Some evs -> evs
      | None -> or_die (Error (file ^ ": no traceEvents array"))
    in
    let names =
      List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_str) events
    in
    (* duration events only — counter samples share the name namespace *)
    let span_names =
      List.filter_map
        (fun e ->
          match Option.bind (Json.member "ph" e) Json.to_str with
          | Some "X" -> Option.bind (Json.member "name" e) Json.to_str
          | _ -> None)
        events
    in
    let counter name =
      Option.bind (Json.member "counters" j) (fun c ->
          Option.bind (Json.member name c) Json.to_num)
    in
    (match List.filter (fun span -> not (List.mem span names)) require_spans with
     | [] -> ()
     | missing ->
       or_die
         (Error (Printf.sprintf "%s: missing span(s): %s" file (String.concat ", " missing))));
    List.iter
      (fun span ->
        if List.mem span names then
          or_die
            (Error (Printf.sprintf "%s: forbidden span %s present" file span)))
      forbid_spans;
    List.iter
      (fun name ->
        match counter name with
        | Some n when n > 0.0 -> ()
        | Some _ ->
          or_die (Error (Printf.sprintf "%s: counter %s is zero" file name))
        | None ->
          or_die (Error (Printf.sprintf "%s: counter %s absent" file name)))
      require_counters;
    List.iter
      (fun (span, expected) ->
        let got =
          List.length (List.filter (fun n -> n = span) span_names)
        in
        if got <> expected then
          or_die
            (Error
               (Printf.sprintf "%s: span %s occurs %d time(s), expected %d"
                  file span got expected)))
      count_spans;
    List.iter
      (fun (span, trace_id) ->
        let tagged =
          List.exists
            (fun e ->
              (match Option.bind (Json.member "ph" e) Json.to_str with
               | Some "X" -> true
               | _ -> false)
              && Option.bind (Json.member "name" e) Json.to_str = Some span
              && Option.bind (Json.member "args" e) (fun a ->
                     Option.bind (Json.member "trace_id" a) Json.to_str)
                 = Some trace_id)
            events
        in
        if not tagged then
          or_die
            (Error
               (Printf.sprintf "%s: no span %s tagged with trace_id %s" file
                  span trace_id)))
      require_tagged;
    let checked =
      List.filter_map
        (fun (what, names) ->
          match names with
          | [] -> None
          | _ -> Some (Printf.sprintf "%s %s" what (String.concat ", " names)))
        [ ("present:", require_spans);
          ("absent:", forbid_spans);
          ("counted:", List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) count_spans);
          ("positive:", require_counters);
          ("tagged:", List.map (fun (s, id) -> s ^ "=" ^ id) require_tagged)
        ]
    in
    Printf.printf "trace-lint: %s OK (%d events; %s)\n" file (List.length events)
      (String.concat "; " checked)

(* ---------- trace-fetch ---------- *)

(* One-shot client for the daemon's trace request: fetch a finished
   request-scoped trace as a Chrome trace document — the file is
   lintable with trace-lint --require-span-tagged. *)
let trace_fetch socket_path id out =
  let doc =
    or_die (Unit_serve.Protocol.call socket_path (Unit_serve.Protocol.Trace { id }))
  in
  let text = Json.to_string doc in
  match out with
  | None -> print_endline text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    output_char oc '\n';
    close_out oc;
    Printf.printf "trace %s written to %s\n" id path

(* ---------- explain ---------- *)

(* Per-operator tensorization coverage: which instructions of the target
   platform apply to each workload, and for the rejected ones the
   structured reason (mismatching node path, failing access pair, or
   mapping exhaustion) instead of a bare "no". *)
let explain model target json packs =
  load_isa_packs packs;
  let tgt = any_target_or_die target in
  let g = or_die (Unit_core.Memplan.build_graph ~model ~act_dtype:Dtype.U8) in
  let reports =
    List.map (fun (wl, _) -> Unit_core.Explain.conv tgt wl) (Unit_models.Zoo.conv_workloads g)
  in
  if json then
    let j =
      match reports with
      | [ r ] -> Unit_core.Explain.to_json r
      | rs -> Json.Arr (List.map Unit_core.Explain.to_json rs)
    in
    print_endline (Json.to_string j)
  else
    List.iter (fun r -> Format.printf "%a@." Unit_core.Explain.pp r) reports

(* ---------- bench-report / bench-diff / bench-lint ---------- *)

module Perf_gate = Unit_core.Perf_gate

let bench_report target out =
  let tgt = any_target_or_die target in
  let report = Perf_gate.generate tgt in
  (match out with
   | Some path ->
     Perf_gate.write path report;
     Printf.printf "perf report: %d kernel(s) on %s written to %s\n"
       (List.length report.Perf_gate.pg_kernels)
       report.Perf_gate.pg_target path
   | None -> print_endline (Json.to_string (Perf_gate.to_json report)))

(* Exit codes are the gate's contract: 0 = within tolerance, 1 =
   regression, 2 = the inputs themselves are unusable. *)
let bench_diff old_file new_file tolerance =
  let load file =
    match Perf_gate.read file with
    | Ok r -> r
    | Error m ->
      prerr_endline (Printf.sprintf "unitc: %s: %s" file m);
      exit 2
  in
  let old_report = load old_file in
  let new_report = load new_file in
  if not (String.equal old_report.Perf_gate.pg_target new_report.Perf_gate.pg_target)
  then begin
    prerr_endline
      (Printf.sprintf "unitc: target mismatch: %s vs %s"
         old_report.Perf_gate.pg_target new_report.Perf_gate.pg_target);
    exit 2
  end;
  let df = Perf_gate.diff_reports ~tolerance ~old_report ~new_report in
  Format.printf "%a@." (Perf_gate.pp_diff ~tolerance) df;
  if df.Perf_gate.df_regressions <> [] then exit 1

let bench_lint files =
  let failed = ref false in
  List.iter
    (fun file ->
      match Perf_gate.validate_file file with
      | Ok desc -> Printf.printf "bench-lint: %s OK (%s)\n" file desc
      | Error m ->
        Printf.printf "bench-lint: %s FAILED (%s)\n" file m;
        failed := true)
    files;
  if !failed then exit 1

(* ---------- memplan / memcheck ---------- *)

module Memplan = Unit_core.Memplan
module Footprint = Unit_analysis.Footprint

let footprint_to_json (fp : Footprint.report) =
  Json.Obj
    [ ("alloc_bytes", Json.Num (float_of_int fp.Footprint.fp_alloc_bytes));
      ( "tile_window_bytes",
        Json.Num (float_of_int fp.Footprint.fp_tile_window_bytes) );
      ("total_bytes", Json.Num (float_of_int fp.Footprint.fp_total_bytes));
      ( "touched",
        Json.Obj
          (List.map
             (fun (name, bytes) -> (name, Json.Num (float_of_int bytes)))
             fp.Footprint.fp_touched) )
    ]

let pp_kernel_report (name, count, fp) =
  match fp with
  | None -> Printf.printf "  %-44s x%-3d (not tensorizable)\n" name count
  | Some (fp : Footprint.report) ->
    Printf.printf "  %-44s x%-3d scratch %6d B  tile %5d B  touched %9d B\n"
      name count fp.Footprint.fp_alloc_bytes fp.Footprint.fp_tile_window_bytes
      fp.Footprint.fp_total_bytes

(* Whole-graph static memory analysis: liveness over the executor's
   node-order walk, a greedy best-fit arena plan, and the
   independent checker's verdict.  A rejected plan is printed and exits
   non-zero — the planner proposes, the checker proves. *)
let memplan model target json kernels trace packs =
  let tgt = target_or_die target in
  model_or_die model;
  if trace then Common.enable_tracing ();
  load_isa_packs packs;
  let g =
    or_die (Memplan.build_graph ~model ~act_dtype:(Pipeline.target_act_dtype tgt))
  in
  let a = Memplan.analyze g in
  let kernel_reports =
    if kernels then Some (Memplan.kernel_reports ~target:tgt g) else None
  in
  if json then begin
    let j = Memplan.analysis_to_json model a in
    let j =
      match kernel_reports, j with
      | None, j -> j
      | Some krs, Json.Obj fields ->
        Json.Obj
          (fields
           @ [ ( "kernels",
                 Json.Arr
                   (List.map
                      (fun (name, count, fp) ->
                        Json.Obj
                          [ ("workload", Json.Str name);
                            ("count", Json.Num (float_of_int count));
                            ( "footprint",
                              match fp with
                              | None -> Json.Null
                              | Some fp -> footprint_to_json fp )
                          ])
                      krs) )
             ])
      | Some _, j -> j
    in
    print_endline (Json.to_string j)
  end
  else begin
    Format.printf "%a@." (Memplan.pp_analysis model) a;
    Option.iter
      (fun krs ->
        Printf.printf "tensorized kernel footprints (%s):\n" target;
        List.iter pp_kernel_report krs)
      kernel_reports
  end;
  if a.Memplan.ma_diags <> [] then begin
    List.iter
      (fun d -> prerr_endline (Diag.to_string d))
      a.Memplan.ma_diags;
    exit 1
  end

(* Sweep the planner + checker over the whole zoo (the @memcheck alias);
   optionally freeze the numbers as BENCH_memplan.json. *)
let memcheck write_bench =
  let rows =
    match Memplan.bench_rows () with
    | rows -> rows
    | exception Invalid_argument m -> or_die (Error m)
  in
  List.iter
    (fun (r : Memplan.bench_row) ->
      Printf.printf
        "memcheck: %-14s naive %10d B  arena %10d B  (%5.1f%%)  %3d slot(s)  \
         plan proven sound\n"
        r.Memplan.br_model r.Memplan.br_naive_bytes r.Memplan.br_arena_bytes
        (r.Memplan.br_reuse_ratio *. 100.0)
        r.Memplan.br_slots)
    rows;
  match write_bench with
  | None -> ()
  | Some path ->
    Memplan.write_bench path rows;
    Printf.printf "memplan benchmark (%d models) written to %s\n"
      (List.length rows) path

(* ---------- command wiring ---------- *)

let conv_args f =
  Term.(
    const f $ op_kind_arg $ isa_arg $ channels_arg $ hw_arg $ out_channels_arg
    $ kernel_arg $ stride_arg $ n_arg $ m_arg $ kdim_arg)

let isa_cmd =
  let json_flag =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as JSON instead of a table.")
  in
  let lint =
    let files = Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE") in
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Parse and validate .uisa packs without registering anything: \
            grammar, shape/axis consistency, dtype accumulation legality \
            (the overflow lint), cost sanity.  Exits non-zero on any \
            error; prints each instruction's semantic digest.")
      Term.(const isa_lint $ files $ json_flag)
  in
  let list =
    Cmd.v
      (Cmd.info "list"
         ~doc:
           "List every registered instruction with its platform, semantic \
            digest and provenance (builtin or pack:FILE), after loading \
            any --isa-pack files.")
      Term.(const isa_list $ isa_pack_arg $ json_flag)
  in
  let show =
    let names = Arg.(value & pos_all string [] & info [] ~docv:"NAME") in
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Print registered instructions back out as a canonical .uisa \
            pack (every instruction when no NAME is given).  The output \
            re-lints and re-loads to the same semantic digests — the \
            round-trip property the test suite pins.")
      Term.(const isa_show $ names $ isa_pack_arg)
  in
  Cmd.group
    (Cmd.info "isa"
       ~doc:
         "Declarative .uisa instruction packs: lint packs, list registered \
          instructions with digests and provenance, print canonical packs.")
    [ lint; list; show ]

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Run the Inspector: applicability of an instruction to an operation.")
    (conv_args inspect)

let compile_cmd =
  let show_ir =
    Arg.(value & flag & info [ "ir" ] ~doc:"Dump the tensor IR after replacement.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Tensorize, tune and estimate a kernel.")
    Term.(
      const compile $ op_kind_arg $ isa_arg $ spec_arg $ channels_arg $ hw_arg
      $ out_channels_arg $ kernel_arg $ stride_arg $ n_arg $ m_arg $ kdim_arg $ show_ir)

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Enable the observability layer: print the span/counter summary \
           table on exit.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Also write a Chrome trace_event JSON file (load it in \
           chrome://tracing or Perfetto).")

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute the tensorized kernel and the scalar oracle; compare.")
    Term.(
      const run $ op_kind_arg $ isa_arg $ engine_arg $ trace_flag
      $ trace_out_arg $ store_arg $ isa_pack_arg $ channels_arg $ hw_arg
      $ out_channels_arg $ kernel_arg $ stride_arg $ n_arg $ m_arg $ kdim_arg)

let models_cmd =
  Cmd.v (Cmd.info "models" ~doc:"List the model zoo.") Term.(const models $ const ())

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Print the paper's Table I.")
    Term.(const table1 $ const ())

let counterexamples_flag =
  Arg.(
    value & flag
    & info [ "counterexamples" ]
        ~doc:
          "Instead of the zoo, run hand-built racy/overflowing programs through \
           the analyzer and verify each is rejected (exits non-zero).")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static schedule-legality check (races, carried dependences, tensorize \
          footprints, overflow) over every tensorized kernel of Table I and the \
          model zoo; exits non-zero on any error.")
    Term.(
      const check $ spec_arg $ counterexamples_flag $ trace_flag $ store_arg
      $ isa_pack_arg)

let profile_cmd =
  let model =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MODEL"
             ~doc:"A zoo model (see unitc models) or table1:N for a \
                   conv/bias/relu block over one Table I workload.")
  in
  let no_exec =
    Arg.(value & flag
         & info [ "no-exec" ]
             ~doc:"Skip the executor run: modelled column and engine totals \
                   only.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "The model report, with tracing on: one row per fused compute node \
          of the quantized graph, the UNIT engine's modelled time next to \
          the node's measured time in one executor run, then every engine's \
          modelled total and UNIT's speedups; spans, counters and histograms \
          print at exit.  On a CPU target each distinct conv/dense workload \
          is tensorized first; with --engine emitted it is also rendered and \
          native-compiled (emit.* spans in the trace; artifacts persisted \
          when --store is given).")
    Term.(
      const profile $ model $ any_target_arg $ engine_arg $ trace_out_arg $ no_exec
      $ store_arg $ isa_pack_arg)

let warmup_cmd =
  let model =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MODEL"
             ~doc:"A zoo model (see unitc models), 'zoo' for every model, \
                   'table1' for all of Table I, or table1:N for one row.")
  in
  let store =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"The tuning-store directory to populate (created if absent).")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains (default: the parallel oracle's).")
  in
  let retries =
    Arg.(value & opt int 1
         & info [ "retries" ] ~docv:"N"
             ~doc:"Extra attempts per transiently-failing workload.")
  in
  let assert_hit =
    Arg.(value & flag
         & info [ "assert-hit" ]
             ~doc:"Exit non-zero unless at least one workload warm-started \
                   from the store (used by the warmup-smoke alias).")
  in
  Cmd.v
    (Cmd.info "warmup"
       ~doc:
         "Concurrently compile every distinct workload of a model (or the \
          zoo, or Table I) into a persistent tuning store: cold workloads \
          are tuned and appended, warm ones replay the stored config and \
          skip the tuner sweep.  Duplicate workloads compile once (a job \
          list is deduplicated by key, and the kernel cache tunes each \
          workload once across domains); transient failures retried with \
          exponential backoff.  With \
          --engine emitted, each tuned kernel is also native-compiled and \
          its .cmxs content-addressed into the store.")
    Term.(
      const warmup $ model $ spec_arg $ engine_arg $ store $ domains $ retries
      $ trace_flag $ trace_out_arg $ assert_hit $ isa_pack_arg)

let store_stats_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the summary and configs as JSON instead of a table.")
  in
  Cmd.v
    (Cmd.info "store-stats"
       ~doc:
         "Summarize a tuning-store directory: shard count, live records, \
          corrupt/stale lines skipped on load, and every stored config with \
          its estimated cycles.")
    Term.(const store_stats $ file $ json)

let store_migrate_cmd =
  let legacy =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"LEGACY"
             ~doc:"Legacy single-file JSONL store to migrate from.")
  in
  let dir =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"DIR" ~doc:"Sharded store directory (created if absent).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v
    (Cmd.info "store-migrate"
       ~doc:
         "Copy a legacy single-file tuning store into a sharded store \
          directory: every live record and live native-kernel artifact is \
          rehashed onto its owning shard.  The legacy store is left \
          untouched.")
    Term.(const store_migrate $ legacy $ dir $ json)

let memplan_cmd =
  let model =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MODEL"
             ~doc:"A zoo model (see unitc models) or table1:N for a \
                   conv/bias/relu block over one Table I workload.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the analysis (stats, per-slot plan, checker verdict) \
                   as JSON.")
  in
  let kernels =
    Arg.(value & flag
         & info [ "kernels" ]
             ~doc:"Also tensorize each distinct conv workload and report its \
                   static kernel footprint: Alloc scratch peak, instruction \
                   tile window and exactly-bounded touched bytes.")
  in
  Cmd.v
    (Cmd.info "memplan"
       ~doc:
         "Whole-graph static memory analysis: tensor liveness over the \
          executor's node-order walk, a greedy best-fit arena plan \
          assigning every intermediate an offset in one shared arena, and \
          an independent overlap checker that proves the plan sound.  \
          Exits non-zero when the checker rejects the plan.")
    Term.(
      const memplan $ model $ spec_arg $ json $ kernels $ trace_flag
      $ isa_pack_arg)

let memcheck_cmd =
  let write_bench =
    Arg.(value & opt (some string) None
         & info [ "write-bench" ] ~docv:"FILE"
             ~doc:"Freeze the zoo-wide naive-vs-planned bytes as a \
                   unit-memplan benchmark JSON (the checked-in \
                   BENCH_memplan.json, validated by bench-lint).")
  in
  Cmd.v
    (Cmd.info "memcheck"
       ~doc:
         "Plan and prove a memory arena for every zoo model (the root \
          @memcheck alias): exits non-zero if the overlap checker rejects \
          any planner output.")
    Term.(const memcheck $ write_bench)

let explain_cmd =
  let model =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MODEL"
             ~doc:"A zoo model (see unitc models) or table1:N for one Table I \
                   kernel.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report(s) as JSON instead of a table.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Per-operator tensorization coverage: for every instruction of the \
          target's platform, whether it applies to each workload — with the \
          chosen kernel's cycle attribution — or the structured rejection \
          reason (mismatching expression node, failing access pair, or \
          mapping exhaustion).")
    Term.(
      const explain $ model $ any_target_arg $ json
      $ isa_pack_arg)

let bench_report_cmd =
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the report to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "bench-report"
       ~doc:
         "Freeze the machine model's view of a target to JSON: chosen ISA, \
          estimated cycles and cost attribution for every Table I workload.  \
          Deterministic — the checked-in baseline the perf gate diffs \
          against.")
    Term.(const bench_report $ any_target_arg $ out)

let bench_diff_cmd =
  let old_file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json")
  in
  let new_file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json")
  in
  let tolerance =
    Arg.(value & opt float 2.0
         & info [ "tolerance" ] ~docv:"PCT"
             ~doc:"Allowed per-kernel cycle increase, percent.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two perf reports kernel-by-kernel.  Exits 1 if any kernel \
          regressed beyond the tolerance (or vanished), 2 if an input is \
          not a valid perf report.")
    Term.(const bench_diff $ old_file $ new_file $ tolerance)

let bench_lint_cmd =
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "bench-lint"
       ~doc:
         "Validate checked-in benchmark JSON files against the fields and \
          gates their schema tag names (perf report, paper outcomes, memory \
          plan, emitted engine, serve soak); exits non-zero on any failure.")
    Term.(const bench_lint $ files)

let trace_lint_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let forbid_spans =
    Arg.(
      value
      & opt_all string []
      & info [ "forbid-span" ] ~docv:"NAME"
          ~doc:
            "Assert the named span does NOT appear in the trace (repeatable; \
             replaces the default stage-span checks).  The emit-smoke alias \
             forbids emit.compile on the warm run.")
  in
  let require_counters =
    Arg.(
      value
      & opt_all string []
      & info [ "require-positive-counter" ] ~docv:"NAME"
          ~doc:
            "Assert the named counter is present and positive (repeatable; \
             replaces the default tuner.candidates check).")
  in
  let count_spans =
    Arg.(
      value
      & opt_all string []
      & info [ "count-span" ] ~docv:"NAME=N"
          ~doc:
            "Assert the named span occurs exactly N times (repeatable; \
             replaces the default stage-span checks).  The serve-smoke \
             alias requires tensorize.tune=1 — many coalesced requests, \
             one tuner sweep.")
  in
  let require_tagged =
    Arg.(
      value
      & opt_all string []
      & info [ "require-span-tagged" ] ~docv:"NAME=TRACE_ID"
          ~doc:
            "Assert some complete span named NAME carries \
             args.trace_id=TRACE_ID (repeatable; replaces the default \
             stage-span checks).  The metrics-smoke alias requires the \
             tensorize span of a client-supplied trace id.")
  in
  Cmd.v
    (Cmd.info "trace-lint"
       ~doc:
         "Validate a Chrome trace written by --trace-out: JSON parses and, by \
          default, all five tensorize stage spans are present with tuner \
          candidates counted; --forbid-span / --count-span / \
          --require-positive-counter / --require-span-tagged substitute \
          explicit assertions.")
    Term.(
      const trace_lint $ file $ forbid_spans $ require_counters $ count_spans
      $ require_tagged)

let trace_fetch_cmd =
  let socket =
    Arg.(
      value
      & opt string "unitd.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let id =
    Arg.(
      required
      & opt (some string) None
      & info [ "id" ] ~docv:"TRACE_ID" ~doc:"Trace id to fetch.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace-fetch"
       ~doc:
         "Fetch one request's finished trace from a running unitd as a \
          Chrome trace document (spans, counter deltas and diagnostics \
          attributed to that trace id).")
    Term.(const trace_fetch $ socket $ id $ out)

let store_gc_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v
    (Cmd.info "store-gc"
       ~doc:
         "Garbage-collect a store's native-kernel artifacts: drop records \
          whose .cmxs is missing or whose emitter/compiler version is stale, \
          delete unreferenced files from each shard's artifacts directory, \
          report reclaimed bytes, and compact the shard files.")
    Term.(const store_gc $ file $ json)

let emit_status_cmd =
  Cmd.v
    (Cmd.info "emit-status"
       ~doc:
         "Probe the native-emission toolchain (native Dynlink, ocamlopt, \
          runtime hook artifacts).  Exit 0 when the emitted engine is \
          available, 3 when it would degrade to the closure engine.")
    Term.(const emit_status $ const ())

let () =
  let info =
    Cmd.info "unitc" ~version:"1.0.0"
      ~doc:"UNIT: unified tensorized instruction compilation."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ isa_cmd; inspect_cmd; compile_cmd; run_cmd; models_cmd;
            table1_cmd; check_cmd; profile_cmd;
            warmup_cmd; store_stats_cmd; store_gc_cmd; store_migrate_cmd;
            emit_status_cmd;
            trace_lint_cmd; trace_fetch_cmd; explain_cmd;
            bench_report_cmd; bench_diff_cmd; bench_lint_cmd;
            memplan_cmd; memcheck_cmd
          ]))
