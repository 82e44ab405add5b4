module Inspector = Unit_inspector.Inspector
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Spec = Unit_machine.Spec
module Cpu_model = Unit_machine.Cpu_model
module Gpu_model = Unit_machine.Gpu_model
module Cost_report = Unit_machine.Cost_report
module Workload = Unit_graph.Workload
module Json = Unit_obs.Json

type target =
  | Cpu of Pipeline.target
  | Gpu

let target_to_string = function
  | Cpu t -> Pipeline.target_to_string t
  | Gpu -> "gpu"

let target_of_string = function
  | "gpu" | "v100" -> Some Gpu
  | s -> Result.to_option (Result.map (fun t -> Cpu t) (Pipeline.target_of_string s))

type verdict =
  | Accepted of {
      vd_mappings : int;
      vd_config : string;
      vd_cycles : float;
      vd_report : Cost_report.t;
    }
  | Rejected of Inspector.rejection
  | Errored of string

type entry = {
  ex_isa : string;
  ex_provenance : string;
  ex_verdict : verdict;
}

let provenance_of name =
  match Unit_isa.Registry.provenance name with
  | Some Unit_isa.Registry.Builtin | None -> "builtin"
  | Some (Unit_isa.Registry.Pack source) -> "pack:" ^ source

type report = {
  ex_workload : string;
  ex_target : string;
  ex_entries : entry list;
  ex_chosen : string option;
}

(* ---------- CPU targets: full Inspector coverage over the platform ISAs ---------- *)

let cpu_config_string (c : Cpu_tuner.config) =
  Printf.sprintf "grain=%d unroll=%d" c.Cpu_tuner.parallel_grain
    c.Cpu_tuner.unroll_budget

(* Explain answers "which instruction applies to the op the pipeline
   would build" under its u8 x i8 policy, so e.g. the i16 multiply-add
   baselines are reported rejected with the concrete dtype mismatch
   rather than silently skipped.  It never reads or writes the store. *)
let cpu_verdict ~spec (intrin : Unit_isa.Intrin.t) wl =
  try
    let op = Pipeline.conv_op intrin wl in
    match Pipeline.tensorize ~use_store:false ~spec op intrin with
    | Error (Pipeline.Rejected r) -> Rejected r
    | Error (Pipeline.Illegal _ as f) -> Errored (Pipeline.failure_to_string f)
    | Ok c ->
      let tuned = c.Pipeline.c_tuned in
      Accepted
        { vd_mappings = c.Pipeline.c_mappings;
          vd_config = cpu_config_string tuned.Cpu_tuner.t_config;
          vd_cycles = tuned.Cpu_tuner.t_estimate.Cpu_model.est_cycles;
          vd_report = tuned.Cpu_tuner.t_report
        }
  with
  | Invalid_argument msg -> Errored msg
  | Failure msg -> Errored msg

let cpu_report target ~workload wl =
  let spec = Pipeline.target_spec target in
  let intrins = Unit_isa.Registry.of_platform (Pipeline.target_platform target) in
  let entries =
    List.map
      (fun (intrin : Unit_isa.Intrin.t) ->
        { ex_isa = intrin.Unit_isa.Intrin.name;
          ex_provenance = provenance_of intrin.Unit_isa.Intrin.name;
          ex_verdict = cpu_verdict ~spec intrin wl
        })
      intrins
  in
  let chosen =
    List.fold_left
      (fun best e ->
        match e.ex_verdict, best with
        | Accepted a, Some (_, bc) when a.vd_cycles < bc ->
          Some (e.ex_isa, a.vd_cycles)
        | Accepted a, None -> Some (e.ex_isa, a.vd_cycles)
        | _ -> best)
      None entries
  in
  { ex_workload = workload;
    ex_target = Pipeline.target_to_string target;
    ex_entries = entries;
    ex_chosen = Option.map fst chosen
  }

(* ---------- GPU target: the single implicit-GEMM WMMA template ---------- *)

let gpu_config_string (c : Gpu_model.config) =
  Printf.sprintf "p=%d fuse=%b split_k=%d" c.Gpu_model.p c.Gpu_model.fuse_dim
    c.Gpu_model.split_k

let gpu_report ~workload wl =
  let entry =
    try
      let spec = Workload.conv_spec ~lanes:1 ~reduce_width:1 wl in
      let gemm = Gpu_model.gemm_of_conv spec in
      let config, _ = Gpu_model.tune Spec.v100 gemm in
      let est, rep = Gpu_model.estimate_with_report Spec.v100 gemm config in
      { ex_isa = "wmma.implicit-gemm";
        ex_provenance = "builtin";
        ex_verdict =
          Accepted
            { vd_mappings = 1;
              vd_config = gpu_config_string config;
              vd_cycles = est.Gpu_model.g_cycles;
              vd_report = rep
            }
      }
    with Invalid_argument msg ->
      { ex_isa = "wmma.implicit-gemm"; ex_provenance = "builtin";
        ex_verdict = Errored msg }
  in
  { ex_workload = workload;
    ex_target = "gpu";
    ex_entries = [ entry ];
    ex_chosen =
      (match entry.ex_verdict with Accepted _ -> Some entry.ex_isa | _ -> None)
  }

let conv target wl =
  let workload = Workload.name (Workload.Conv wl) in
  match target with
  | Cpu t -> cpu_report t ~workload wl
  | Gpu -> gpu_report ~workload wl

(* ---------- sinks ---------- *)

let rejection_to_json (r : Inspector.rejection) =
  match r with
  | Inspector.Not_isomorphic mm ->
    Json.Obj
      [ ("kind", Json.Str "not_isomorphic");
        ("path", Json.Str mm.Inspector.mm_path);
        ("instr_node", Json.Str mm.Inspector.mm_instr);
        ("op_node", Json.Str mm.Inspector.mm_op)
      ]
  | Inspector.No_feasible_mapping
      (Inspector.Exhausted { ex_axis; ex_kind; ex_extent }) ->
    Json.Obj
      [ ("kind", Json.Str "mapping_exhausted");
        ("intrin_axis", Json.Str ex_axis);
        ("axis_kind", Json.Str ex_kind);
        ("axis_extent", Json.Num (float_of_int ex_extent))
      ]
  | Inspector.No_feasible_mapping
      (Inspector.Access_violations { av_tried; av_witness = w }) ->
    Json.Obj
      [ ("kind", Json.Str "access_violation");
        ("mappings_tried", Json.Num (float_of_int av_tried));
        ("tensor", Json.Str w.Inspector.af_tensor);
        ("op_axis", Json.Str w.Inspector.af_op_axis);
        ("intrin_axis", Json.Str w.Inspector.af_intrin_axis)
      ]

let verdict_to_json = function
  | Accepted a ->
    Json.Obj
      [ ("kind", Json.Str "accepted");
        ("mappings", Json.Num (float_of_int a.vd_mappings));
        ("config", Json.Str a.vd_config);
        ("cycles", Json.Num a.vd_cycles);
        ("report", Cost_report.to_json a.vd_report)
      ]
  | Rejected r -> rejection_to_json r
  | Errored msg -> Json.Obj [ ("kind", Json.Str "error"); ("reason", Json.Str msg) ]

let to_json r =
  Json.Obj
    [ ("workload", Json.Str r.ex_workload);
      ("target", Json.Str r.ex_target);
      ("chosen",
       match r.ex_chosen with Some s -> Json.Str s | None -> Json.Null);
      ("isas",
       Json.Arr
         (List.map
            (fun e ->
              Json.Obj
                [ ("isa", Json.Str e.ex_isa);
                  ("provenance", Json.Str e.ex_provenance);
                  ("verdict", verdict_to_json e.ex_verdict)
                ])
            r.ex_entries))
    ]

let pp ppf r =
  Format.fprintf ppf "@[<v>explain %s on %s@," r.ex_workload r.ex_target;
  List.iter
    (fun e ->
      match e.ex_verdict with
      | Accepted a ->
        let chosen = r.ex_chosen = Some e.ex_isa in
        Format.fprintf ppf "  %-18s %-10s ACCEPTED%s  %d mapping%s, %s, %.0f cycles@,"
          e.ex_isa e.ex_provenance
          (if chosen then " (chosen)" else "")
          a.vd_mappings
          (if a.vd_mappings = 1 then "" else "s")
          a.vd_config a.vd_cycles;
        if chosen then
          Format.fprintf ppf "    @[<v>%a@]@," Cost_report.pp a.vd_report
      | Rejected rj ->
        Format.fprintf ppf "  %-18s %-10s REJECTED  %s@," e.ex_isa
          e.ex_provenance (Inspector.rejection_to_string rj)
      | Errored msg ->
        Format.fprintf ppf "  %-18s %-10s ERROR     %s@," e.ex_isa
          e.ex_provenance msg)
    r.ex_entries;
  (match r.ex_chosen with
   | Some isa -> Format.fprintf ppf "chosen: %s@]" isa
   | None -> Format.fprintf ppf "chosen: none (no instruction applies)@]")
