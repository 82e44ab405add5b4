(* The unitd server core: bounded admission queue, worker-domain pool,
   request coalescing, bounded retries, graceful drain.  See
   server.mli. *)

module Json = Unit_obs.Json
module Obs = Unit_obs.Obs
module Metrics = Unit_obs.Metrics
module Warmup = Unit_store.Warmup
module Pipeline = Unit_core.Pipeline

(* always-on: these feed /stats and the metrics exposition, which must
   stay truthful with span tracing disabled *)
let c_requests = Obs.counter ~always:true "serve.requests"
let c_completed = Obs.counter ~always:true "serve.completed"
let c_coalesced = Obs.counter ~always:true "serve.coalesced"
let c_overloaded = Obs.counter ~always:true "serve.overloaded"
let c_retry = Obs.counter ~always:true "serve.retry"
let c_failed = Obs.counter ~always:true "serve.failed"
let h_latency = Obs.histogram ~always:true "serve.latency_us"

(* the pipeline's own always-on counter, interned by name *)
let c_cache_wait = Obs.counter ~always:true "pipeline.cache.wait"

type config = {
  domains : int;
  queue_cap : int;
  retries : int;
}

let default_config = { domains = 4; queue_cap = 64; retries = 1 }

(* One queued unit of work.  Waiters block on [jb_cond]; the worker that
   executes the job publishes under [jb_mutex] and broadcasts.  The
   leader (first submitter) and every coalesced waiter share the same
   response object. *)
type job = {
  jb_key : string;
  jb_trace : string;  (* the leader's trace id: spans/counters tag here *)
  jb_request : Protocol.request;
  jb_mutex : Mutex.t;
  jb_cond : Condition.t;
  mutable jb_start : float;  (* span-clock time the worker picked it up *)
  mutable jb_done : bool;
  mutable jb_response : Protocol.response;
}

type t = {
  cfg : config;
  handle : Protocol.request -> Json.t;
  fault : key:string -> attempt:int -> unit;
  sleep : float -> unit;
  lock : Mutex.t;  (** guards queue, inflight, draining, stopping *)
  have_work : Condition.t;
  queue : job Queue.t;
  inflight : (string, job) Hashtbl.t;
  flight : Flight.t;
  mutable draining : bool;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  (* stats live on atomics, not Obs counters, so /stats answers
     truthfully even when tracing is disabled *)
  n_requests : int Atomic.t;
  n_completed : int Atomic.t;
  n_coalesced : int Atomic.t;
  n_overloaded : int Atomic.t;
  n_retries : int Atomic.t;
  n_failed : int Atomic.t;
  mutable retried : string list;
      (* the last [retried_cap] retried attempts, newest first, under
         [lock] *)
}

let retried_cap = 8

let execute t job =
  job.jb_start <- Obs.now ();
  let attempts () =
    (* what a retried attempt raised goes into [retried], so a retry that
       changes an outcome names its cause *)
    let on_retry n e =
      Atomic.incr t.n_retries;
      Obs.incr c_retry;
      let text = Printf.sprintf "%s attempt %d: %s" job.jb_key n (Printexc.to_string e) in
      Mutex.protect t.lock (fun () ->
          t.retried <- List.filteri (fun i _ -> i < retried_cap) (text :: t.retried))
    in
    match
      Warmup.with_retries ~sleep:t.sleep ~retries:t.cfg.retries ~on_retry ~key:job.jb_key
        (fun n ->
          t.fault ~key:job.jb_key ~attempt:n;
          t.handle job.jb_request)
    with
    | Warmup.Done result -> Protocol.Result result
    | Warmup.Rejected reason -> Protocol.Failure (Protocol.Not_applicable, reason)
    | Warmup.Gave_up (e, n) ->
      Atomic.incr t.n_failed;
      Obs.incr c_failed;
      Protocol.Failure
        ( Protocol.Internal,
          Printf.sprintf "%s (after %d attempt(s))" (Printexc.to_string e) n )
  in
  (* the handler runs under the leader's trace context, so pipeline
     spans, counter increments and diags land on the request's trace *)
  let response = Obs.with_trace_id (Some job.jb_trace) attempts in
  (* unregister first: a submitter arriving after this point starts a
     fresh flight instead of adopting a published one *)
  Mutex.lock t.lock;
  Hashtbl.remove t.inflight job.jb_key;
  Mutex.unlock t.lock;
  Mutex.lock job.jb_mutex;
  job.jb_response <- response;
  job.jb_done <- true;
  Condition.broadcast job.jb_cond;
  Mutex.unlock job.jb_mutex;
  Atomic.incr t.n_completed;
  Obs.incr c_completed

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.have_work t.lock
    done;
    if Queue.is_empty t.queue then (* stopping && drained *)
      Mutex.unlock t.lock
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.lock;
      execute t job;
      loop ()
    end
  in
  loop ()

let create ?(fault = fun ~key:_ ~attempt:_ -> ()) ?(sleep = Unix.sleepf)
    ?(handle = Handler.handle) ?flight_cap cfg =
  if cfg.domains < 1 then invalid_arg "Server.create: domains must be >= 1";
  if cfg.queue_cap < 1 then invalid_arg "Server.create: queue_cap must be >= 1";
  if cfg.retries < 0 then invalid_arg "Server.create: retries must be >= 0";
  let t =
    { cfg; handle; fault; sleep;
      flight = Flight.create ?cap:flight_cap ();
      lock = Mutex.create ();
      have_work = Condition.create ();
      queue = Queue.create ();
      inflight = Hashtbl.create 64;
      draining = false;
      stopping = false;
      workers = [];
      n_requests = Atomic.make 0;
      n_completed = Atomic.make 0;
      n_coalesced = Atomic.make 0;
      n_overloaded = Atomic.make 0;
      n_retries = Atomic.make 0;
      n_failed = Atomic.make 0;
      retried = []
    }
  in
  t.workers <- List.init cfg.domains (fun _ -> Domain.spawn (worker t));
  (* live queue depth for the metrics exposition; replaced by name, so
     the most recently created server owns the gauge *)
  Obs.register_gauge "serve.queue_depth" (fun () ->
      Mutex.lock t.lock;
      let q = Queue.length t.queue in
      Mutex.unlock t.lock;
      float_of_int q);
  t

let flight t = t.flight
let retried t = Mutex.protect t.lock (fun () -> List.rev t.retried)

let stats_fields t =
  Mutex.lock t.lock;
  let queued = Queue.length t.queue in
  let inflight = Hashtbl.length t.inflight in
  let draining = t.draining in
  Mutex.unlock t.lock;
  [ ("domains", t.cfg.domains); ("queue_cap", t.cfg.queue_cap);
    ("queued", queued); ("queue_depth", queued); ("inflight", inflight);
    ("draining", if draining then 1 else 0);
    ("requests", Atomic.get t.n_requests);
    ("completed", Atomic.get t.n_completed);
    ("coalesced", Atomic.get t.n_coalesced);
    ("overloaded", Atomic.get t.n_overloaded);
    ("retries", Atomic.get t.n_retries);
    ("failed", Atomic.get t.n_failed);
    ("tensorize_shared", Obs.value c_cache_wait)
  ]

let isa_packs_json () =
  Json.Arr
    (List.map
       (fun (info : Unit_isadsl.Loader.pack_info) ->
         Json.Obj
           [ ("source", Json.Str info.Unit_isadsl.Loader.pk_source);
             ( "instructions",
               Json.Arr
                 (List.map
                    (fun (name, digest, _) ->
                      Json.Obj
                        [ ("name", Json.Str name);
                          ("digest", Json.Str digest)
                        ])
                    info.Unit_isadsl.Loader.pk_instructions) )
           ])
       (Unit_isadsl.Loader.loaded ()))

let stats_json t =
  Json.Obj
    [ ( "server",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Num (float_of_int v)))
             (stats_fields t)) );
      ("isa_packs", isa_packs_json ());
      ("obs", Obs.stats_json ())
    ]

let await job =
  Mutex.lock job.jb_mutex;
  while not job.jb_done do
    Condition.wait job.jb_cond job.jb_mutex
  done;
  let response = job.jb_response in
  Mutex.unlock job.jb_mutex;
  response

let mark_coalesced ~leader = function
  | Protocol.Result (Json.Obj fields) ->
    Protocol.Result
      (Json.Obj
         (fields
         @ [ ("coalesced", Json.Bool true);
             ("leader_trace_id", Json.Str leader)
           ]))
  | other -> other

(* Server-generated trace ids: a per-process token (so two daemons'
   traces cannot collide in a shared log) and a sequence number. *)
let gen_trace_id =
  let seq = Atomic.make 0 in
  let token =
    lazy
      (Printf.sprintf "%06x"
         (Hashtbl.hash (Unix.getpid (), Unix.gettimeofday ()) land 0xffffff))
  in
  fun () ->
    Printf.sprintf "unitd-%s-%d" (Lazy.force token) (Atomic.fetch_and_add seq 1)

let flight_json t ~last ~errors_only ~slower_than_us =
  (* exact percentiles are over the whole live window; the filters only
     shape the entry listing *)
  let window = Flight.entries t.flight in
  let filtered = Flight.entries ?last ~errors_only ?slower_than_us t.flight in
  Json.Obj
    [ ("window", Json.Num (float_of_int (List.length window)));
      ("recorded", Json.Num (float_of_int (Flight.recorded t.flight)));
      ("cap", Json.Num (float_of_int (Flight.cap t.flight)));
      ("exact_p50_us", Json.Num (Flight.exact_percentile window 50.0));
      ("exact_p99_us", Json.Num (Flight.exact_percentile window 99.0));
      ("entries", Json.Arr (List.map Flight.entry_to_json filtered))
    ]

let submit_traced t ?trace_id request =
  let trace =
    match trace_id with Some id -> id | None -> gen_trace_id ()
  in
  Obs.trace_begin trace;
  Atomic.incr t.n_requests;
  Obs.incr c_requests;
  let t0 = Obs.now () in
  (* who executed the request: for a coalesced follower the spans and
     store counters live on the leader's trace, not the follower's *)
  let exec_trace = ref trace in
  let queued_job = ref None in
  let coalesced = ref false in
  let finish response =
    let total_us = Float.max 0.0 ((Obs.now () -. t0) *. 1e6) in
    Obs.observe h_latency total_us;
    let queue_us =
      match !queued_job with
      | None -> 0.0 (* answered inline: overload, draining, control *)
      | Some job -> Float.max 0.0 (Float.min total_us ((job.jb_start -. t0) *. 1e6))
    in
    let entry =
      { Flight.fl_trace = trace;
        fl_key =
          (match Protocol.coalesce_key request with
           | Some k -> k
           | None -> Protocol.kind_name request);
        fl_outcome =
          (match response with
           | Protocol.Result _ -> "ok"
           | Protocol.Failure (code, _) -> Protocol.code_to_string code);
        fl_coalesced = !coalesced;
        fl_queue_us = queue_us;
        fl_run_us = total_us -. queue_us;
        fl_engine =
          (match request with
           | Protocol.Tune { engine; _ } | Protocol.Run { engine; _ } ->
             Pipeline.engine_to_string engine
           | _ -> "");
        fl_store_hit = Obs.trace_counter_value !exec_trace "store.disk.hit" > 0
      }
    in
    Flight.record t.flight entry;
    (match response with
     | Protocol.Failure (Protocol.Internal, _) ->
       (* a worker died (or exhausted retries): leave the recent past on
          stderr while it is still fresh *)
       Flight.dump stderr t.flight
     | _ -> ());
    (response, trace)
  in
  match request with
  | Protocol.Ping -> finish (Protocol.Result (Json.Obj [ ("pong", Json.Bool true) ]))
  | Protocol.Stats ->
    (* answered inline so observability survives overload: a full queue
       must never make the daemon opaque *)
    finish (Protocol.Result (stats_json t))
  | Protocol.Shutdown ->
    Mutex.lock t.lock;
    t.draining <- true;
    Mutex.unlock t.lock;
    finish (Protocol.Result (Json.Obj [ ("draining", Json.Bool true) ]))
  | Protocol.Load_isa { path } ->
    (* answered inline: registration is cheap, and it is safe against
       in-flight jobs — the registry publishes immutable copy-on-write
       snapshots, so worker domains mid-tensorize read consistently
       while a pack loads, and the loader's own lock keeps a pack's
       conflict-check-then-register atomic (never half-loaded) *)
    (match Unit_isadsl.Loader.load_file path with
     | Ok info ->
       finish
         (Protocol.Result
            (Json.Obj
               [ ("pack", Json.Str info.Unit_isadsl.Loader.pk_source);
                 ( "instructions",
                   Json.Arr
                     (List.map
                        (fun (name, digest, status) ->
                          Json.Obj
                            [ ("name", Json.Str name);
                              ("digest", Json.Str digest);
                              ( "status",
                                Json.Str
                                  (match status with
                                   | Unit_isadsl.Loader.Added -> "added"
                                   | Unit_isadsl.Loader.Idempotent ->
                                     "idempotent") )
                            ])
                        info.Unit_isadsl.Loader.pk_instructions) );
                 ( "warnings",
                   Json.Arr
                     (List.map
                        (fun d -> Json.Str (Unit_tir.Diag.to_string d))
                        info.Unit_isadsl.Loader.pk_warnings) )
               ]))
     | Error ds ->
       finish
         (Protocol.Failure
            ( Protocol.Bad_request,
              String.concat "; "
                (List.map Unit_tir.Diag.to_string ds) )))
  | Protocol.Metrics ->
    finish
      (Protocol.Result
         (Json.Obj
            [ ("content_type", Json.Str Metrics.content_type);
              ("body", Json.Str (Metrics.render ()))
            ]))
  | Protocol.Trace { id } ->
    (match Obs.trace_chrome id with
     | Some doc -> finish (Protocol.Result doc)
     | None ->
       finish
         (Protocol.Failure
            ( Protocol.Bad_request,
              Printf.sprintf "unknown trace_id %S (never begun, or evicted)"
                id )))
  | Protocol.Flight { last; errors_only; slower_than_us } ->
    finish (Protocol.Result (flight_json t ~last ~errors_only ~slower_than_us))
  | Protocol.Tune _ | Protocol.Run _ | Protocol.Explain _ ->
    let key = Option.get (Protocol.coalesce_key request) in
    Mutex.lock t.lock;
    if t.draining then begin
      Mutex.unlock t.lock;
      finish (Protocol.Failure (Protocol.Draining, "daemon is shutting down"))
    end
    else begin
      match Hashtbl.find_opt t.inflight key with
      | Some job ->
        (* coalesce: adopt the in-flight job and share its response *)
        Atomic.incr t.n_coalesced;
        Obs.incr c_coalesced;
        Mutex.unlock t.lock;
        coalesced := true;
        exec_trace := job.jb_trace;
        queued_job := Some job;
        finish (mark_coalesced ~leader:job.jb_trace (await job))
      | None ->
        if Queue.length t.queue >= t.cfg.queue_cap then begin
          Atomic.incr t.n_overloaded;
          Obs.incr c_overloaded;
          Mutex.unlock t.lock;
          finish
            (Protocol.Failure
               ( Protocol.Overloaded,
                 Printf.sprintf "queue full (%d queued, cap %d)"
                   (Queue.length t.queue) t.cfg.queue_cap ))
        end
        else begin
          let job =
            { jb_key = key; jb_trace = trace; jb_request = request;
              jb_mutex = Mutex.create (); jb_cond = Condition.create ();
              jb_start = t0; jb_done = false;
              jb_response = Protocol.Failure (Protocol.Internal, "unset")
            }
          in
          Hashtbl.add t.inflight key job;
          Queue.push job t.queue;
          Condition.signal t.have_work;
          Mutex.unlock t.lock;
          queued_job := Some job;
          finish (await job)
        end
    end

let submit t request = fst (submit_traced t request)

let draining t =
  Mutex.lock t.lock;
  let d = t.draining in
  Mutex.unlock t.lock;
  d

let drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  t.stopping <- true;
  Condition.broadcast t.have_work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

(* ---------- wire loop ---------- *)

let try_write_frame fd payload =
  match Wire.write_frame fd payload with
  | () -> true
  | exception Unix.Unix_error (_, _, _) -> false

let respond ?trace_id fd response =
  try_write_frame fd (Json.to_string (Protocol.response_to_json ?trace_id response))

let serve_connection t fd =
  let rec loop () =
    match Wire.read_frame fd with
    | Error Wire.Closed -> ()
    | Error (Wire.Truncated _ as e) | Error (Wire.Oversized _ as e) ->
      (* the stream is unrecoverable (we cannot resynchronize on frame
         boundaries): answer if the peer still listens, then hang up *)
      ignore
        (respond fd
           (Protocol.Failure (Protocol.Bad_request, Wire.error_to_string e))
          : bool)
    | Ok payload ->
      let wrote =
        match Json.parse payload with
        | Error m ->
          respond fd
            (Protocol.Failure (Protocol.Bad_request, "malformed JSON: " ^ m))
        | Ok j ->
          (match Protocol.trace_id_of_json j with
           | Error m -> respond fd (Protocol.Failure (Protocol.Bad_request, m))
           | Ok trace_id ->
             (match Protocol.request_of_json j with
              | Error m ->
                (* echo a well-formed client trace id even on a bad
                   request, so the client can still correlate *)
                respond ?trace_id fd
                  (Protocol.Failure (Protocol.Bad_request, m))
              | Ok request ->
                let response, tid = submit_traced t ?trace_id request in
                respond ~trace_id:tid fd response))
      in
      if wrote then loop ()
  in
  loop ()
