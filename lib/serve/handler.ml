(* The daemon's request handler: protocol requests in, pipeline calls
   out.  See handler.mli. *)

module Json = Unit_obs.Json
module Obs = Unit_obs.Obs
module Pipeline = Unit_core.Pipeline
module Workload = Unit_graph.Workload
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Ndarray = Unit_codegen.Ndarray

let tune_result ~target ~engine workload (c : Pipeline.compiled) =
  let spec = Pipeline.target_spec target in
  let tuned = c.Pipeline.c_tuned in
  let est = tuned.Cpu_tuner.t_estimate in
  Json.Obj
    [ ("workload", Json.Str (Protocol.workload_name workload));
      ("target", Json.Str (Pipeline.target_to_string target));
      ("engine", Json.Str (Pipeline.engine_to_string engine));
      ( "signature",
        Json.Str (Pipeline.workload_signature ~spec c.Pipeline.c_op c.Pipeline.c_intrin) );
      ("isa", Json.Str c.Pipeline.c_intrin.Unit_isa.Intrin.name);
      ("config", Cpu_tuner.config_to_json tuned.Cpu_tuner.t_config);
      ("cycles", Json.Num est.Unit_machine.Cpu_model.est_cycles);
      ("seconds", Json.Num est.Unit_machine.Cpu_model.est_seconds)
    ]

(* Execute the tensorized kernel on the canonical deterministic inputs
   (seed 1, like `unitc run`) and return the output's content digest —
   the bit-identity witness the soak harness compares against direct
   pipeline runs. *)
let run_result ~target ~engine workload (c : Pipeline.compiled) =
  let spec = Pipeline.target_spec target in
  let op = c.Pipeline.c_op in
  let inputs =
    List.map
      (fun t -> (t, Ndarray.random_for_tensor ~seed:1 t))
      (Unit_dsl.Op.inputs op)
  in
  let out = Ndarray.of_tensor_zeros op.Unit_dsl.Op.output in
  Pipeline.run_func ~engine
    ~signature:(Pipeline.kernel_signature ~spec op c.Pipeline.c_intrin)
    c.Pipeline.c_tuned.Cpu_tuner.t_func
    ~bindings:((op.Unit_dsl.Op.output, out) :: inputs);
  Json.Obj
    [ ("workload", Json.Str (Protocol.workload_name workload));
      ("target", Json.Str (Pipeline.target_to_string target));
      ("engine", Json.Str (Pipeline.engine_to_string engine));
      ("digest", Json.Str (Protocol.digest_ndarray out));
      ("elements", Json.Num (float_of_int (Ndarray.num_elements out)))
    ]

let handle = function
  | Protocol.Ping -> Json.Obj [ ("pong", Json.Bool true) ]
  | Protocol.Stats ->
    (* normally answered inline by the server; kept total for direct use *)
    Obs.stats_json ()
  | Protocol.Shutdown -> Json.Obj [ ("draining", Json.Bool true) ]
  | Protocol.Metrics ->
    (* normally answered inline by the server; kept total for direct use *)
    Json.Obj
      [ ("content_type", Json.Str Unit_obs.Metrics.content_type);
        ("body", Json.Str (Unit_obs.Metrics.render ()))
      ]
  | Protocol.Trace { id } ->
    (match Obs.trace_chrome id with
     | Some doc -> doc
     | None ->
       invalid_arg
         (Printf.sprintf "unknown trace_id %S (never begun, or evicted)" id))
  | Protocol.Flight _ ->
    (* only the server can answer: the flight recorder is per-server
       state the handler has no handle on *)
    invalid_arg "flight is answered inline by the server"
  | Protocol.Load_isa { path } ->
    (* normally answered inline by the server; kept total for direct use *)
    (match Unit_isadsl.Loader.load_file path with
     | Ok info ->
       Json.Obj
         [ ("pack", Json.Str info.Unit_isadsl.Loader.pk_source);
           ( "loaded",
             Json.Num
               (float_of_int
                  (List.length info.Unit_isadsl.Loader.pk_instructions)) )
         ]
     | Error ds ->
       invalid_arg
         (String.concat "; " (List.map Unit_tir.Diag.to_string ds)))
  | Protocol.Tune { target; engine; workload } ->
    tune_result ~target ~engine workload
      (Pipeline.compiled target (Protocol.to_workload workload))
  | Protocol.Run { target; engine; workload } ->
    run_result ~target ~engine workload
      (Pipeline.compiled target (Protocol.to_workload workload))
  | Protocol.Explain { target; workload } ->
    (match Protocol.to_workload workload with
     | Workload.Conv wl ->
       Unit_core.Explain.to_json
         (Unit_core.Explain.conv (Unit_core.Explain.Cpu target) wl)
     | Workload.Conv3 _ | Workload.Fc _ ->
       invalid_arg "explain covers convolution workloads only")
