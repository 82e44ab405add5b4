(* models: quantized inference of resnet18, mobilenet1.0 and squeezenet
   (structural U8 quantization plus fusion) through [Executor.run ~plan]
   with the checked arena plan, on a seeded 64x64 input.  The models take
   turns.  All measured time is in the graph executor — on resnet18,
   weight synthesis and convolution take about equal shares and glue ops
   the rest — so this is the workload that running whole models on tuned
   kernels, and epilogue fusion, must move; it bypasses the tuner, store,
   server and emitter.

   Outputs are checked against golden digests of the reference (plan-less)
   executor recorded in benchmark/expected/models.json for seed 1, and
   against a plan-less run made before the timed phase for any other
   seed. *)

module Ndarray = Unit_codegen.Ndarray
module Executor = Unit_graph.Executor
module Passes = Unit_graph.Passes
module Arena = Unit_analysis.Arena
module Json = Unit_obs.Json

let goldens_file = "benchmark/expected/models.json"
let input_hw = function Ctx.Full -> 64 | Ctx.Smoke -> 16

(* resnet18's weight synthesis alone takes over a second whatever the
   input size, so the smoke scale leaves it out. *)
let models_of = function
  | Ctx.Full -> Metrics.models
  | Ctx.Smoke -> [ "mobilenet1.0"; "squeezenet" ]

type model = {
  name : string;
  graph : Unit_graph.Graph.t;
  plan : Executor.arena_plan;
}

(* The seed selects the input image: values in [0, 1). *)
let input ~seed ~scale =
  let st = Random.State.make [| seed |] in
  let hw = input_hw scale in
  Ndarray.init_float ~dtype:Unit_dtype.Dtype.F32 ~shape:[ 3; hw; hw ] (fun _ ->
      Random.State.float st 1.0)

let graph name =
  match Unit_models.Zoo.find name with
  | Some build -> build ()
  | None -> invalid_arg ("unknown model " ^ name)

let quantize g = Passes.fuse (Passes.quantize_structural ~act_dtype:Unit_dtype.Dtype.U8 g)

let setup (ctx : Ctx.t) _rep =
  List.map
    (fun name ->
      let g = graph name in
      let graph = Ctx.span "passes" ~detail:name (fun () -> quantize g) in
      let plan =
        Ctx.span "arena" ~detail:name (fun () ->
            let plan = Arena.plan graph in
            let diags = Arena.check graph plan in
            Ctx.check ctx (diags = []) "%s: arena plan rejected: %s" name
              (String.concat "; " (List.map Unit_tir.Diag.to_string diags));
            Arena.exec_plan plan)
      in
      { name; graph; plan })
    (models_of ctx.Ctx.scale)

(* The reference executor (per-op buffers, no plan) — what the goldens
   record. *)
let reference_digests ~seed ~scale models =
  let input = input ~seed ~scale in
  List.map
    (fun name ->
      let v = Executor.run (quantize (graph name)) ~input in
      (name, Ndarray.digest v.Executor.arr))
    models

(* Goldens for seed 1, per input size (the smoke scale's too). *)
let goldens_json () =
  let per_scale scale =
    ( string_of_int (input_hw scale),
      Json.Obj
        (List.map
           (fun (n, d) -> (n, Json.Str d))
           (reference_digests ~seed:1 ~scale Metrics.models)) )
  in
  Json.Obj
    [ ("seed", Json.Num 1.0); ("digests", Json.Obj [ per_scale Ctx.Full; per_scale Ctx.Smoke ]) ]

let read_goldens scale =
  match Json.parse (Files.read goldens_file) with
  | Error e -> failwith (goldens_file ^ ": " ^ e)
  | Ok j ->
    let size = string_of_int (input_hw scale) in
    List.map
      (fun name ->
        match
          Option.bind (Json.member "digests" j) (fun d ->
              Option.bind (Json.member size d) (Json.member name))
        with
        | Some (Json.Str d) -> (name, d)
        | _ -> failwith (Printf.sprintf "%s: no %s digest for %s" goldens_file size name))
      (models_of scale)

(* Self times of the executor's op spans inside each traced inference,
   split into weight synthesis, convolution and glue. *)
let layers (ctx : Ctx.t) =
  let setup = Spans.aggregate (Spans.with_self (Ctx.setup_spans ctx)) in
  Ctx.set_layer ctx "arena.plan_ms" (Spans.total_per_call setup "bench.arena" ~unit:1e3);
  Ctx.set_layer ctx "passes.quantize_fuse_ms"
    (Spans.total_per_call setup "bench.passes" ~unit:1e3);
  let timed = Spans.with_self (Ctx.timed_spans ctx) in
  let part name =
    if name = "exec.weight" then Some "weight"
    else if List.mem name [ "exec.conv2d"; "exec.conv3d"; "exec.dense" ] then Some "conv"
    else if name = "exec.level" then None
    else if String.starts_with ~prefix:"exec." name then Some "glue"
    else None
  in
  let op_total = ref 0.0 and wall = ref 0.0 in
  List.iter
    (fun model ->
      let runs =
        List.filter
          (fun ((s : Unit_obs.Obs.span_record), _) ->
            s.Unit_obs.Obs.sp_name = "bench.executor" && s.Unit_obs.Obs.sp_detail = model)
          timed
      in
      let n = float_of_int (Stdlib.max 1 (List.length runs)) in
      let sums = Hashtbl.create 4 in
      List.iter
        (fun (run, _) ->
          wall := !wall +. Spans.duration run;
          List.iter
            (fun ((s : Unit_obs.Obs.span_record), self) ->
              match part s.Unit_obs.Obs.sp_name with
              | Some p ->
                op_total := !op_total +. self;
                Hashtbl.replace sums p (self +. Option.value ~default:0.0 (Hashtbl.find_opt sums p))
              | None -> ())
            (Spans.within timed run))
        runs;
      List.iter
        (fun p ->
          Ctx.set_layer ctx
            (Printf.sprintf "executor.%s_ms.%s" p model)
            (Option.value ~default:0.0 (Hashtbl.find_opt sums p) /. n *. 1e3))
        [ "weight"; "conv"; "glue" ];
      Ctx.set_layer ctx (Printf.sprintf "model.%s_ms" model)
        (Stats.median (Ctx.samples ctx ("model." ^ model)) *. 1e3))
    (models_of ctx.Ctx.scale);
  Ctx.set_layer ctx "executor.parallelism" (Stats.ratio !op_total !wall)

let run (ctx : Ctx.t) =
  let models = Ctx.setup ctx ~upfront:1 ~per_round:20 (setup ctx) in
  let input = input ~seed:ctx.Ctx.seed ~scale:ctx.Ctx.scale in
  let expected =
    Ctx.untraced ctx (fun () ->
        if ctx.Ctx.seed = 1 then read_goldens ctx.Ctx.scale
        else reference_digests ~seed:ctx.Ctx.seed ~scale:ctx.Ctx.scale (models_of ctx.Ctx.scale))
  in
  let infer m () = Ctx.span "executor" ~detail:m.name (fun () -> Executor.run ~plan:m.plan m.graph ~input) in
  let check m (v : Executor.value) =
    Ctx.check ctx
      (String.equal (Ndarray.digest v.Executor.arr) (List.assoc m.name expected))
      "%s: output differs from the reference executor" m.name
  in
  Ctx.warmup ctx (fun () -> List.iter (fun m -> check m (infer m ())) models);
  Ctx.timed ctx (fun _ ->
      List.iter
        (fun m ->
          Option.iter (fun (v, _) -> check m v) (Ctx.op ctx ("model." ^ m.name) (infer m)))
        models);
  if ctx.Ctx.trace then layers ctx
