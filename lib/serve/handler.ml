(* The daemon's request handler: protocol requests in, pipeline calls
   out.  See handler.mli. *)

module Json = Unit_obs.Json
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
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown | Protocol.Metrics
  | Protocol.Trace _ | Protocol.Flight _ | Protocol.Load_isa _ ->
    invalid_arg "answered inline by the server"
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
