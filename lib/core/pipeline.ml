open Unit_dtype
open Unit_dsl
module Inspector = Unit_inspector.Inspector
module Reorganize = Unit_rewriter.Reorganize
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Spec = Unit_machine.Spec
module Cpu_model = Unit_machine.Cpu_model
module Gpu_model = Unit_machine.Gpu_model
module Workload = Unit_graph.Workload
module Obs = Unit_obs.Obs

let () = Unit_isa.Defs.ensure_registered ()

let c_cache_hit = Obs.counter "pipeline.cache.hit"
let c_cache_miss = Obs.counter "pipeline.cache.miss"
let c_cache_evict = Obs.counter "pipeline.cache.evict"

(* always-on: the daemon's /stats reports it as [tensorize_shared] *)
let c_cache_wait = Obs.counter ~always:true "pipeline.cache.wait"

(* Attribution telemetry: the tuned kernel's cycle breakdown and its
   roofline classification (all no-ops unless tracing is enabled). *)
let h_attr_compute = Obs.histogram "model.cycles.compute"
let h_attr_stall = Obs.histogram "model.cycles.stall"
let h_attr_icache = Obs.histogram "model.cycles.icache"
let h_attr_fork_join = Obs.histogram "model.cycles.fork_join"
let h_attr_memory = Obs.histogram "model.cycles.memory"
let c_bound_compute = Obs.counter "model.bound.compute"
let c_bound_memory = Obs.counter "model.bound.memory"

let observe_report (r : Unit_machine.Cost_report.t) =
  Obs.observe h_attr_compute r.Unit_machine.Cost_report.cr_compute;
  Obs.observe h_attr_stall r.Unit_machine.Cost_report.cr_stall;
  Obs.observe h_attr_icache r.Unit_machine.Cost_report.cr_icache;
  Obs.observe h_attr_fork_join r.Unit_machine.Cost_report.cr_fork_join;
  Obs.observe h_attr_memory r.Unit_machine.Cost_report.cr_memory;
  match r.Unit_machine.Cost_report.cr_bound with
  | Unit_machine.Cost_report.Compute_bound -> Obs.incr c_bound_compute
  | Unit_machine.Cost_report.Memory_bound -> Obs.incr c_bound_memory

type compiled = {
  c_op : Op.t;
  c_intrin : Unit_isa.Intrin.t;
  c_tuned : Cpu_tuner.tuned;
  c_mappings : int;
  c_warnings : Unit_tir.Diag.t list;
}

type failure =
  | Rejected of Inspector.rejection
  | Illegal of Unit_tir.Diag.t list

let failure_to_string = function
  | Rejected r -> Inspector.rejection_to_string r
  | Illegal diags ->
    "illegal schedule: "
    ^ String.concat "; "
        (List.map Unit_tir.Diag.to_string (Unit_tir.Diag.errors diags))

(* ---------- CPU targets ---------- *)

type target =
  | X86
  | Arm

let target_names = "x86|cascadelake|arm|graviton2"

let target_of_string = function
  | "x86" | "cascadelake" -> Ok X86
  | "arm" | "graviton2" -> Ok Arm
  | other -> Error (Printf.sprintf "unknown target %s (%s)" other target_names)

let target_to_string = function X86 -> "x86" | Arm -> "arm"
let target_spec = function X86 -> Spec.cascadelake | Arm -> Spec.graviton2
let target_platform = function X86 -> Unit_isa.Intrin.X86 | Arm -> Unit_isa.Intrin.Arm
let target_intrin = function X86 -> "vnni.vpdpbusd" | Arm -> "arm.udot"
let target_act_dtype = function X86 -> Dtype.U8 | Arm -> Dtype.I8

(* ---------- canonical workload identity + persistent tuning store ---------- *)

(* Everything a stored tuning config's validity depends on: the workload's
   shapes and dtypes, the instruction, and the machine the sweep modelled.
   The schema/tuner versions are folded in by the store when it hashes
   this into a key (Unit_store.Store.key_of_signature). *)
let workload_signature ~(spec : Spec.cpu) (op : Op.t) (intrin : Unit_isa.Intrin.t) =
  let axes l =
    String.concat "," (List.map (fun (a : Axis.t) -> string_of_int a.Axis.extent) l)
  in
  let tensor (t : Tensor.t) =
    Printf.sprintf "%s[%s]"
      (Dtype.to_string t.Tensor.dtype)
      (String.concat "x" (List.map string_of_int (Array.to_list t.Tensor.shape)))
  in
  (* the instruction contributes name AND semantic digest: two packs
     defining different semantics under one name must never share tuning
     records or cached emit artifacts, and editing a pack invalidates its
     warm records instead of silently replaying stale configs *)
  let isa_id =
    Printf.sprintf "%s#%s" intrin.Unit_isa.Intrin.name
      (String.sub (Unit_isa.Intrin.semantic_digest intrin) 0 12)
  in
  Printf.sprintf "op=%s|out=%s|in=%s|sp=%s|rd=%s|isa=%s|target=%s/%dc@%.2fGHz"
    op.Op.name (tensor op.Op.output)
    (String.concat ";" (List.map tensor (Op.inputs op)))
    (axes op.Op.spatial) (axes op.Op.reduce) isa_id
    spec.Spec.cpu_name spec.Spec.cores spec.Spec.freq_ghz

let kernel_signature ~spec op intrin = "tensorized|" ^ workload_signature ~spec op intrin

type tuning_store = {
  ts_lookup : signature:string -> Cpu_tuner.config option;
  ts_record :
    signature:string ->
    workload:string ->
    isa:string ->
    target:string ->
    diags:Unit_tir.Diag.t list ->
    Cpu_tuner.tuned ->
    unit;
}

(* ---------- execution engines ---------- *)

type engine =
  | Reference
  | Compiled
  | Emitted

let engine_to_string = function
  | Reference -> "reference"
  | Compiled -> "compiled"
  | Emitted -> "emitted"

let engine_names = "reference|compiled|emitted"

let engine_of_string = function
  | "reference" -> Ok Reference
  | "compiled" -> Ok Compiled
  | "emitted" -> Ok Emitted
  | other ->
    Error
      (Unit_tir.Diag.errorf Unit_tir.Diag.Emit "unknown engine %s (%s)" other
         engine_names)

let run_func ~engine ?signature func ~bindings =
  match engine with
  | Reference -> Unit_codegen.Interp.run func ~bindings
  | Compiled -> Unit_codegen.Compile.run func ~bindings
  | Emitted -> Unit_codegen.Emit_cache.run ?signature func ~bindings

let prepare_emitted ~signature func =
  Unit_codegen.Emit_cache.prepare ~signature func

(* An [Atomic] rather than a plain ref: the warm-up scheduler installs the
   store once and then fans compilation across domains that all read it. *)
let current_store : tuning_store option Atomic.t = Atomic.make None

let set_tuning_store s = Atomic.set current_store s
let tuning_store () = Atomic.get current_store

(* Registry-backed instruction metadata for the dependence analyzer
   (Unit_analysis stays ISA-free; this is its view of the registry). *)
let intrin_meta name =
  Option.map
    (fun (i : Unit_isa.Intrin.t) ->
      let op = i.Unit_isa.Intrin.op in
      let axes = List.map (fun (a : Axis.t) -> (a.Axis.name, a.Axis.extent)) in
      let accumulator =
        match op.Op.init with Op.Init_tensor t -> Some t | _ -> None
      in
      let multiplicands =
        List.filter
          (fun (t : Tensor.t) ->
            match accumulator with Some a -> not (Tensor.equal a t) | None -> true)
          (Op.inputs op)
      in
      { Unit_analysis.Analysis.im_spatial = axes op.Op.spatial;
        im_reduce = axes op.Op.reduce;
        im_operands = List.map (fun (t : Tensor.t) -> t.Tensor.dtype) multiplicands;
        im_accumulates = op.Op.init <> Op.Zero
      })
    (Unit_isa.Registry.find name)

let analyze (tuned : Cpu_tuner.tuned) =
  Unit_analysis.Analysis.check_func ~intrin:intrin_meta tuned.Cpu_tuner.t_func

(* Inspect, reorganize, then tune-or-replay + analyze + persist.
   [use_store = false] (or a pinned [config]) bypasses the store in
   both directions; analyzer-rejected kernels are never persisted. *)
let tensorize ?(use_store = true) ?config ~spec op (intrin : Unit_isa.Intrin.t) =
  let tok =
    if Obs.enabled () then
      Obs.start "tensorize"
        ~detail:(op.Op.name ^ " @ " ^ intrin.Unit_isa.Intrin.name)
    else Obs.null_span
  in
  Fun.protect ~finally:(fun () -> Obs.stop tok) @@ fun () ->
  match Obs.with_span "tensorize.inspect" (fun () -> Inspector.inspect op intrin) with
  | Error r -> Error (Rejected r)
  | Ok ap ->
    let reorganized =
      Obs.with_span "tensorize.reorganize" (fun () -> Reorganize.apply op ap ())
    in
    let store =
      match use_store, config with
      | true, None -> Atomic.get current_store
      | _ -> None
    in
    let signature = lazy (workload_signature ~spec op intrin) in
    (* [Cpu_tuner.tune] opens the [tensorize.tune] span itself (with a
       [tensorize.lower_replace] child per candidate); a disk hit or a
       pinned config (a baseline's fixed schedule) takes
       [Cpu_tuner.of_config] instead, which opens [tensorize.from_config]
       and no tune/candidate spans at all. *)
    let tuned, freshly_tuned =
      match store, config with
      | _, Some config -> (Cpu_tuner.of_config spec reorganized config, false)
      | None, None -> (Cpu_tuner.tune spec reorganized, false)
      | Some s, None ->
        (match s.ts_lookup ~signature:(Lazy.force signature) with
         | Some config -> (Cpu_tuner.of_config spec reorganized config, false)
         | None -> (Cpu_tuner.tune spec reorganized, true))
    in
    if Obs.enabled () then observe_report tuned.Cpu_tuner.t_report;
    let diags = Obs.with_span "tensorize.analyze" (fun () -> analyze tuned) in
    if Unit_tir.Diag.errors diags <> [] then begin
      let failure = Illegal diags in
      Obs.trace_diag (failure_to_string failure);
      Error failure
    end
    else begin
      (match store with
       | Some s when freshly_tuned ->
         s.ts_record ~signature:(Lazy.force signature) ~workload:op.Op.name
           ~isa:intrin.Unit_isa.Intrin.name ~target:spec.Spec.cpu_name ~diags tuned
       | _ -> ());
      List.iter
        (fun d ->
          let msg =
            Printf.sprintf "%s with %s: %s" op.Op.name
              intrin.Unit_isa.Intrin.name (Unit_tir.Diag.to_string d)
          in
          Obs.trace_diag msg;
          Logs.warn (fun m -> m "%s" msg))
        diags;
      Ok
        { c_op = op; c_intrin = intrin; c_tuned = tuned;
          c_mappings = List.length ap.Inspector.ap_mappings;
          c_warnings = diags
        }
    end

let seconds compiled = compiled.c_tuned.Cpu_tuner.t_estimate.Cpu_model.est_seconds

(* ---------- cached per-workload kernels ---------- *)

(* The cache holds whole compiled kernels, so repeat workloads reuse
   the tuned schedule, not just its latency.  It is bounded (FIFO
   eviction) so a long-lived serving process replaying an unbounded
   stream of distinct shapes cannot grow it without limit, and
   mutex-guarded so the warm-up scheduler and the daemon can
   fan pipeline calls across domains.  It is also single-flight: a miss
   registers a flight for its key under the lock and compiles outside
   it; later callers of that key wait on the flight and adopt its entry,
   so concurrent callers tune once.  Flights live apart from the cache,
   so they never count toward the cap and are never evicted. *)
type flight_state =
  | Running
  | Published of compiled
  | Abandoned  (* the leader raised; waiters claim the key afresh *)

type flight = {
  fl_done : Condition.t;
  mutable fl_state : flight_state;
}

let cache_lock = Mutex.create ()
let cache : (string, compiled) Hashtbl.t = Hashtbl.create 256
let cache_order : string Queue.t = Queue.create ()
let flights : (string, flight) Hashtbl.t = Hashtbl.create 16
let cache_cap = ref 1024

let evict_over_cap_locked () =
  while Hashtbl.length cache > !cache_cap do
    match Queue.take_opt cache_order with
    | None -> Hashtbl.reset cache (* unreachable: every insert is enqueued *)
    | Some k ->
      if Hashtbl.mem cache k then begin
        Hashtbl.remove cache k;
        Obs.incr c_cache_evict
      end
  done

let set_cache_cap n =
  if n < 1 then invalid_arg "Pipeline.set_cache_cap: cap must be >= 1";
  Mutex.protect cache_lock (fun () ->
      cache_cap := n;
      evict_over_cap_locked ())

let cache_cap () = !cache_cap
let cache_size () = Mutex.protect cache_lock (fun () -> Hashtbl.length cache)

(* In-flight compiles are left alone: their leaders still publish and
   wake their waiters. *)
let clear_cache () =
  Mutex.protect cache_lock (fun () ->
      Hashtbl.reset cache;
      Queue.clear cache_order)

let memo key f =
  (* under [cache_lock]: a cached entry, a published flight's entry, or
     a fresh flight this caller now leads *)
  let rec claim () =
    match Hashtbl.find_opt cache key with
    | Some e ->
      Obs.incr c_cache_hit;
      Ok e
    | None ->
      (match Hashtbl.find_opt flights key with
       | Some fl ->
         while fl.fl_state = Running do
           Condition.wait fl.fl_done cache_lock
         done;
         (match fl.fl_state with
          | Published e ->
            Obs.incr c_cache_wait;
            Ok e
          | Running | Abandoned -> claim ())
       | None ->
         Obs.incr c_cache_miss;
         let fl = { fl_done = Condition.create (); fl_state = Running } in
         Hashtbl.add flights key fl;
         Error fl)
  in
  match Mutex.protect cache_lock claim with
  | Ok e -> e
  | Error fl ->
    let settle state =
      Hashtbl.remove flights key;
      fl.fl_state <- state;
      Condition.broadcast fl.fl_done
    in
    (match f () with
     | e ->
       Mutex.protect cache_lock (fun () ->
           Hashtbl.replace cache key e;
           Queue.push key cache_order;
           evict_over_cap_locked ();
           settle (Published e));
       e
     | exception exn ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.protect cache_lock (fun () -> settle Abandoned);
       Printexc.raise_with_backtrace exn bt)

let conv_op ?(data_dtype = Dtype.U8) ?(weight_dtype = Dtype.I8)
    (intrin : Unit_isa.Intrin.t) wl =
  let reduce_width = Unit_isa.Intrin.reduction_width intrin in
  let reduce_width =
    match intrin.Unit_isa.Intrin.platform with
    | Unit_isa.Intrin.Arm -> Stdlib.max 4 reduce_width
    | _ -> reduce_width
  in
  Workload.conv_op ~data_dtype ~weight_dtype
    ~lanes:(Unit_isa.Intrin.output_lanes intrin) ~reduce_width wl

(* The one kernel identity, under which the memo caches and the warm-up
   and the daemon dedup: the machine, the instruction, the tuning (the
   full search, or one pinned [config]) and every field of the workload.
   The record patterns name every field, so a field added to [Workload]
   cannot be left out of the key.
   [Workload.name] is only the display name: it drops conv2d padding
   and conv3d height, width and padding. *)
let key target ~intrin config (wl : Workload.t) =
  let workload =
    match wl with
    | Workload.Conv { c; h; w; k; kernel; stride; padding; groups } ->
      Printf.sprintf "conv2d_c%d_h%d_w%d_k%d_r%d_s%d_p%d_g%d" c h w k kernel stride padding
        groups
    | Workload.Conv3
        { w3_c; w3_d; w3_h; w3_w; w3_k; w3_kernel; w3_stride; w3_padding } ->
      Printf.sprintf "conv3d_c%d_d%d_h%d_w%d_k%d_r%d_s%d_p%d" w3_c w3_d w3_h w3_w w3_k
        w3_kernel w3_stride w3_padding
    | Workload.Fc { d_k; d_units } -> Printf.sprintf "dense_k%d_u%d" d_k d_units
  in
  let tuning =
    match config with
    | None -> "tuned"
    | Some { Cpu_tuner.parallel_grain; unroll_budget } ->
      Printf.sprintf "g%d-u%d" parallel_grain unroll_budget
  in
  String.concat "/" [ target_to_string target; intrin; workload; tuning ]

let kernel_key target wl =
  key target ~intrin:(target_intrin target) None wl

(* The one memoised CPU kernel.  A workload that does not tensorize
   raises [Invalid_argument (what ^ ": " ^ reason)]. *)
let compiled_with ?intrin ?config target (wl : Workload.t) =
  let intrin_name = Option.value intrin ~default:(target_intrin target) in
  memo (key target ~intrin:intrin_name config wl)
    (fun () ->
      let intrin = Unit_isa.Registry.find_exn intrin_name in
      let blocked build =
        build ~data_dtype:Dtype.U8 ~weight_dtype:Dtype.I8
          ~lanes:(Unit_isa.Intrin.output_lanes intrin)
          ~reduce_width:(Unit_isa.Intrin.reduction_width intrin)
      in
      let what, op =
        match wl with
        | Workload.Conv c ->
          (* the MLA baseline widens to i16 first; DOT consumes quantized u8 *)
          let wide =
            if String.equal intrin_name "neon.mla.i16" then Some Dtype.I16 else None
          in
          ( Printf.sprintf "conv %s does not tensorize with %s" (Workload.name wl)
              intrin_name,
            conv_op ?data_dtype:wide ?weight_dtype:wide intrin c )
        | Workload.Conv3 c -> ("conv3d does not tensorize", blocked Workload.conv3d_op c)
        | Workload.Fc d -> ("dense does not tensorize", blocked Workload.dense_op d)
      in
      match tensorize ?config ~spec:(target_spec target) op intrin with
      | Ok compiled -> compiled
      | Error f -> invalid_arg (what ^ ": " ^ failure_to_string f))

let compiled target wl = compiled_with target wl

let bake engine target c =
  match engine with
  | Emitted ->
    let signature = kernel_signature ~spec:(target_spec target) c.c_op c.c_intrin in
    ignore (prepare_emitted ~signature c.c_tuned.Cpu_tuner.t_func : (unit, string) result)
  | Reference | Compiled -> ()

let conv_compiled_x86 ?config wl = compiled_with ?config X86 (Workload.Conv wl)
let conv_time_x86 ?config wl = seconds (conv_compiled_x86 ?config wl)
let conv_compiled_arm ?intrin ?config wl = compiled_with ?intrin ?config Arm (Workload.Conv wl)
let conv_time_arm ?intrin ?config wl = seconds (conv_compiled_arm ?intrin ?config wl)

let mem_report c =
  Unit_analysis.Footprint.of_func ~intrin:intrin_meta c.c_tuned.Cpu_tuner.t_func

let conv3d_time_x86 wl = seconds (compiled X86 (Workload.Conv3 wl))
let dense_time_x86 wl = seconds (compiled X86 (Workload.Fc wl))
let dense_time_arm wl = seconds (compiled Arm (Workload.Fc wl))

(* Not memoised: one [Gpu_model.tune] costs about what a memo probe's
   key string and lock would. *)
let conv_time_gpu ?config wl =
  let gemm = Gpu_model.gemm_of_conv (Workload.conv_spec ~lanes:1 ~reduce_width:1 wl) in
  let est =
    match config with
    | Some c -> Gpu_model.estimate Spec.v100 gemm c
    | None -> snd (Gpu_model.tune Spec.v100 gemm)
  in
  est.Gpu_model.g_seconds

(* Depthwise convolutions reduce one channel per group: no dot-product
   idiom to tensorize.  They run as vectorized elementwise MACs, bounded by
   memory streaming and per-element vector work. *)
let depthwise_time_cpu (spec : Spec.cpu) (wl : Workload.conv2d) =
  let macs = Workload.macs (Workload.Conv wl) in
  let oh = Unit_graph.Graph.conv_out_dim ~size:wl.Workload.h ~kernel:wl.Workload.kernel
             ~stride:wl.Workload.stride ~padding:wl.Workload.padding in
  let ow = Unit_graph.Graph.conv_out_dim ~size:wl.Workload.w ~kernel:wl.Workload.kernel
             ~stride:wl.Workload.stride ~padding:wl.Workload.padding in
  let bytes = (wl.Workload.c * wl.Workload.h * wl.Workload.w) + (wl.Workload.k * oh * ow * 4) in
  let threads = Float.of_int spec.Spec.cores in
  let simd_macs_per_cycle = 8.0 in
  let compute = Float.of_int macs /. simd_macs_per_cycle /. threads in
  let memory = Float.of_int bytes /. spec.Spec.dram_bw in
  let cycles = Float.max compute memory +. spec.Spec.fork_join_cost in
  Spec.cycles_to_seconds ~freq_ghz:spec.Spec.freq_ghz cycles
