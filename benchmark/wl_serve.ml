(* serve: a closed loop against an in-process unitd server (one worker
   domain, queue of 64, fresh sharded store).  Two client threads each
   talk to it over their own Unix socketpair in Wire frames served by
   [Server.serve_connection], sending the next request only after the
   previous reply arrives.  The seeded stream mixes
     60% hot Table I tunes on both targets,
     15% cold tunes of never-seen seeded conv shapes (sweep + store append),
     15% small-conv runs on the closure engine,
     10% small-conv runs on the emitted engine.
   It uses the layers of compile and kernels, but under queueing,
   coalescing and contention, so a change that helps those workloads and
   costs the daemon still shows.  Every run digest is compared with a
   direct [Pipeline.run_func] digest. *)

module Pipeline = Unit_core.Pipeline
module Json = Unit_obs.Json
module Wire = Unit_serve.Wire
module Protocol = Unit_serve.Protocol
module Server = Unit_serve.Server
module Flight = Unit_serve.Flight
module Sharded = Unit_store.Sharded
module Warmup = Unit_store.Warmup
module Workload = Unit_graph.Workload
module Ndarray = Unit_codegen.Ndarray

let clients = 2

(* Requests each client sends per round, a whole number of [block]s;
   rounds are where a traced run toggles tracing, with no request in
   flight. *)
let batch = function Ctx.Full -> 100 | Ctx.Smoke -> 20

let run_pool =
  List.map
    (fun (c, k) ->
      { Workload.c; h = 8; w = 8; k; kernel = 3; stride = 1; padding = 1; groups = 1 })
    [ (16, 16); (16, 32); (32, 16); (8, 48) ]

type conn = {
  fd : Unix.file_descr;  (** the client's end *)
  peer : Unix.file_descr;
  thread : Thread.t;  (** [serve_connection] on [peer] *)
}

type daemon = {
  server : Server.t;
  conns : conn array;
  store_dir : string;
}

type kind =
  | Hot
  | Cold
  | Run_compiled
  | Run_emitted

let class_of = function
  | Hot -> "hot_tune"
  | Cold -> "cold_tune"
  | Run_compiled -> "run_compiled"
  | Run_emitted -> "run_emitted"

let call conn ~trace_id req =
  let payload =
    match Protocol.request_to_json req with
    | Json.Obj fields -> Json.Obj (fields @ [ ("trace_id", Json.Str trace_id) ])
    | j -> j
  in
  Wire.write_frame conn.fd (Json.to_string payload);
  match Wire.read_frame conn.fd with
  | Ok frame -> frame
  | Error e -> failwith ("wire: " ^ Wire.error_to_string e)

let response frame =
  match Result.bind (Json.parse frame) Protocol.response_of_json with
  | Ok r -> r
  | Error e -> Protocol.Failure (Protocol.Internal, "unparseable response: " ^ e)

let hot_pool =
  List.concat_map
    (fun target -> List.init 16 (fun i -> (target, Protocol.Table1 (i + 1))))
    [ Warmup.X86; Warmup.Arm ]

let stop d =
  Array.iter (fun c -> Unix.close c.fd) d.conns;
  Array.iter
    (fun c ->
      Thread.join c.thread;
      Unix.close c.peer)
    d.conns;
  Server.drain d.server;
  Pipeline.set_tuning_store None;
  Unit_codegen.Emit_cache.set_artifact_hooks None;
  Files.rm_rf d.store_dir

(* Boot the daemon on a fresh sharded store with a cold kernel cache,
   connect the clients, and tune the hot set through it. *)
let setup (ctx : Ctx.t) rep =
  Pipeline.clear_cache ();
  let store_dir = Filename.concat ctx.Ctx.work_dir (Printf.sprintf "serve-store-%d" rep) in
  let store, _ = Ctx.span "store" (fun () -> Sharded.open_ store_dir) in
  Pipeline.set_tuning_store (Some (Sharded.pipeline_hooks store));
  Unit_codegen.Emit_cache.set_artifact_hooks (Some (Sharded.emit_hooks store));
  let server =
    Server.create ~flight_cap:(1 lsl 16)
      { Server.domains = ctx.Ctx.domains; queue_cap = 64; retries = 1 }
  in
  let conns =
    Array.init clients (fun _ ->
        let fd, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        { fd; peer; thread = Thread.create (fun () -> Server.serve_connection server peer) () })
  in
  List.iteri
    (fun i (target, workload) ->
      match
        response
          (call conns.(0) ~trace_id:(Printf.sprintf "setup-%d-%d" rep i)
             (Protocol.Tune { target; engine = Pipeline.Compiled; workload }))
      with
      | Protocol.Result _ -> ()
      | Protocol.Failure (_, m) -> Ctx.fail ctx "hot-set tune failed: %s" m)
    hot_pool;
  { server; conns; store_dir }

(* A direct run through the pipeline on the handler's canonical inputs
   (seed 1): the digest every daemon run must reproduce. *)
let direct_digest wl =
  let c = Pipeline.conv_compiled_x86 wl in
  let op = c.Pipeline.c_op in
  let inputs =
    List.map (fun t -> (t, Ndarray.random_for_tensor ~seed:1 t)) (Unit_dsl.Op.inputs op)
  in
  let out = Ndarray.of_tensor_zeros op.Unit_dsl.Op.output in
  Pipeline.run_func ~engine:Pipeline.Compiled
    ~signature:
      ("tensorized|"
      ^ Pipeline.workload_signature ~spec:Unit_machine.Spec.cascadelake op c.Pipeline.c_intrin)
    c.Pipeline.c_tuned.Unit_rewriter.Cpu_tuner.t_func
    ~bindings:((op.Unit_dsl.Op.output, out) :: inputs);
  Protocol.digest_ndarray out

(* The mix as one block of 20 requests.  A client sends block after block,
   each in a seeded order, so every round holds the same share of slow
   runs and its cost does not swing with the draw. *)
let block = [ (Hot, 12); (Cold, 3); (Run_compiled, 3); (Run_emitted, 2) ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The seeded request stream of one client.  Hot tunes draw from the
   Table I set; runs step through the run pool from a seeded start.  Cold
   shapes come from a sub-space of the client's own (odd or even
   multiples of 16 output channels), so the two clients never ask for the
   same never-seen shape; padding and sizes keep them apart from Table I
   and the run pool. *)
let stream ~seed ~client =
  let rng = Random.State.make [| seed; client |] in
  let seen = Hashtbl.create 1024 in
  let rec fresh_shape () =
    let kernel = if Random.State.bool rng then 1 else 3 in
    let hw = 9 + Random.State.int rng 24 in
    let wl =
      { Workload.c = 8 * (1 + Random.State.int rng 48);
        h = hw;
        w = hw;
        k = 16 * ((2 * Random.State.int rng 12) + 1 + client);
        kernel;
        stride = 1 + Random.State.int rng 2;
        padding = kernel / 2;
        groups = 1 }
    in
    if Hashtbl.mem seen wl then fresh_shape ()
    else begin
      Hashtbl.add seen wl ();
      wl
    end
  in
  let hot = Array.of_list hot_pool and pool = Array.of_list run_pool in
  let next_run = ref (Random.State.int rng (Array.length pool)) in
  let run engine =
    incr next_run;
    let wl = pool.(!next_run mod Array.length pool) in
    Protocol.Run { target = Warmup.X86; engine; workload = Protocol.Conv wl }
  in
  let pending = ref [] in
  let rec next () =
    match !pending with
    | kind :: rest ->
      pending := rest;
      (match kind with
       | Hot ->
         let target, workload = hot.(Random.State.int rng (Array.length hot)) in
         (Hot, Protocol.Tune { target; engine = Pipeline.Compiled; workload })
       | Cold ->
         let target = if Random.State.bool rng then Warmup.X86 else Warmup.Arm in
         ( Cold,
           Protocol.Tune
             { target; engine = Pipeline.Compiled; workload = Protocol.Conv (fresh_shape ()) } )
       | Run_compiled -> (Run_compiled, run Pipeline.Compiled)
       | Run_emitted -> (Run_emitted, run Pipeline.Emitted))
    | [] ->
      let kinds = Array.of_list (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) block) in
      shuffle rng kinds;
      pending := Array.to_list kinds;
      next ()
  in
  next

let workload_key = function
  | Protocol.Tune { target; workload; _ } | Protocol.Run { target; workload; _ } ->
    Warmup.target_to_string target ^ "/" ^ Protocol.workload_name workload
  | req -> Protocol.kind_name req

type sent = {
  s_trace : string;
  s_us : float;  (** client-measured round trip *)
  s_traced : bool;
  s_kind : kind;
  s_workload : string;
}

(* Requests completed per second of wall time: the median over the
   untraced rounds, so a slow spell of the host moves it no more than it
   moves the latency medians. *)
let untraced_rate round_walls =
  Stats.median
    (List.filter_map
       (fun (traced, n, wall) -> if traced then None else Some (float_of_int n /. wall))
       round_walls)

let layers (ctx : Ctx.t) server sent ~round_walls =
  let flight = Hashtbl.create 4096 in
  List.iter (fun (e : Flight.entry) -> Hashtbl.replace flight e.Flight.fl_trace e)
    (Flight.entries (Server.flight server));
  let untraced = List.filter (fun s -> not s.s_traced) sent in
  let entries = List.filter_map (fun s -> Hashtbl.find_opt flight s.s_trace) untraced in
  let pct xs p = Stats.percentile xs p in
  let client_us = List.map (fun s -> s.s_us) untraced in
  Ctx.set_layer ctx "serve.p50_us" (pct client_us 50.0);
  Ctx.set_layer ctx "serve.p99_us" (pct client_us 99.0);
  Ctx.set_layer ctx "serve.throughput_rps" (untraced_rate round_walls);
  let queue = List.map (fun (e : Flight.entry) -> e.Flight.fl_queue_us) entries in
  let run = List.map (fun (e : Flight.entry) -> e.Flight.fl_run_us) entries in
  Ctx.set_layer ctx "server.queue_us.p50" (pct queue 50.0);
  Ctx.set_layer ctx "server.queue_us.p99" (pct queue 99.0);
  Ctx.set_layer ctx "server.run_us.p50" (pct run 50.0);
  Ctx.set_layer ctx "server.run_us.p99" (pct run 99.0);
  let share f =
    Stats.ratio (float_of_int (List.length (List.filter f entries))) (float_of_int (List.length entries))
  in
  Ctx.set_layer ctx "server.coalesced_ratio" (share (fun e -> e.Flight.fl_coalesced));
  Ctx.set_layer ctx "server.store_hit_ratio" (share (fun e -> e.Flight.fl_store_hit));
  Ctx.set_layer ctx "wire.overhead_us.p50"
    (pct
       (List.filter_map
          (fun s ->
            Option.map (fun e -> s.s_us -. Flight.total_us e) (Hashtbl.find_opt flight s.s_trace))
          untraced)
       50.0);
  (* every never-seen shape sent in a traced round costs exactly one sweep *)
  let cold_traced =
    List.sort_uniq String.compare
      (List.filter_map (fun s -> if s.s_traced && s.s_kind = Cold then Some s.s_workload else None) sent)
  in
  let tunes =
    List.length
      (List.filter
         (fun (s : Unit_obs.Obs.span_record) -> s.Unit_obs.Obs.sp_name = "tensorize.tune")
         (Ctx.timed_spans ctx))
  in
  Ctx.set_layer ctx "handler.duplicate_tunes"
    (float_of_int (Stdlib.max 0 (tunes - List.length cold_traced)))

let run (ctx : Ctx.t) =
  (* A run's digest depends on the process-global tensor ids of the
     cached kernel ([Ndarray.random_for_tensor] keys its inputs on them),
     so a kernel evicted and tensorized again answers with a different
     digest.  Keep every kernel a run tunes resident. *)
  Pipeline.set_cache_cap (1 lsl 16);
  (* a repetition clears the kernel cache the running daemon serves
     from, so all of them come before the timed phase *)
  let d = Ctx.setup ctx ~upfront:5 ~per_round:0 ~teardown:stop (setup ctx) in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let expected =
    Ctx.untraced ctx (fun () ->
        List.map (fun wl -> (Protocol.workload_name (Protocol.Conv wl), direct_digest wl)) run_pool)
  in
  let streams = Array.init clients (fun client -> stream ~seed:ctx.Ctx.seed ~client) in
  let sent = ref [] in
  let check kind req frame =
    match (response frame, req) with
    | Protocol.Failure (code, m), _ ->
      Ctx.fail ctx "%s: %s %s" (class_of kind) (Protocol.code_to_string code) m
    | Protocol.Result j, Protocol.Run { workload; engine; _ } ->
      let name = Protocol.workload_name workload in
      Ctx.check ctx
        (Option.bind (Json.member "digest" j) Json.to_str
        = Some (List.assoc name expected))
        "%s on %s: digest differs from a direct pipeline run" name
        (Pipeline.engine_to_string engine)
    | Protocol.Result j, _ ->
      Ctx.check ctx
        (Option.bind (Json.member "signature" j) Json.to_str <> None)
        "%s: tune response without a signature" (class_of kind)
  in
  (* one round: each client sends its next [batch] requests *)
  let round_walls = ref [] in
  let round i =
    let traced = ctx.Ctx.traced_round in
    let per_client = Array.make clients [] in
    let client c () =
      for j = 0 to batch ctx.Ctx.scale - 1 do
        let kind, req = streams.(c) () in
        let trace_id = Printf.sprintf "bench-%d-%d-%d" i c j in
        match Ctx.op ctx (class_of kind) (fun () -> call d.conns.(c) ~trace_id req) with
        | None -> ()
        | Some (frame, seconds) ->
          check kind req frame;
          per_client.(c) <-
            { s_trace = trace_id; s_us = seconds *. 1e6; s_traced = traced; s_kind = kind;
              s_workload = workload_key req }
            :: per_client.(c)
      done
    in
    let t0 = Ctx.now () in
    List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
    let n = Array.fold_left (fun acc l -> acc + List.length l) 0 per_client in
    round_walls := (traced, n, Ctx.now () -. t0) :: !round_walls;
    Array.iter (fun l -> sent := l @ !sent) per_client
  in
  (* warm-up: run every run-pool kernel once per engine, so the timed
     phase never pays the first emission *)
  Ctx.warmup ctx (fun () ->
      List.iteri
        (fun i wl ->
          List.iter
            (fun (kind, engine) ->
              let req = Protocol.Run { target = Warmup.X86; engine; workload = Protocol.Conv wl } in
              check kind req
                (call d.conns.(0)
                   ~trace_id:(Printf.sprintf "warm-%d-%s" i (Pipeline.engine_to_string engine))
                   req))
            [ (Run_compiled, Pipeline.Compiled); (Run_emitted, Pipeline.Emitted) ])
        run_pool);
  Ctx.timed ctx round;
  Ctx.set_throughput ctx (untraced_rate !round_walls);
  if ctx.Ctx.trace then layers ctx d.server !sent ~round_walls:!round_walls
