(** The unitd server core: a pool of OCaml 5 worker domains behind a
    bounded admission queue, with request coalescing and graceful drain.

    Life of a request ({!submit}):
    - [Ping]/[Stats]/[Shutdown] are answered inline — control traffic is
      never queued, so [/stats] still answers when the queue is full.
    - Work requests are keyed by {!Protocol.coalesce_key}.  If the same
      key is already in flight, the caller adopts that job and shares
      its response (marked with ["coalesced": true], counted on
      [serve.coalesced]) — many clients asking for the same workload
      trigger exactly one execution.
    - A fresh key meets admission control: a queue at [queue_cap] gets
      an immediate structured [overloaded] response instead of
      unbounded latency.
    - Workers retry transient handler failures up to [retries] times
      under warm-up's policy ({!Unit_store.Warmup.with_retries}, on the
      {!Unit_store.Warmup.backoff_s} schedule), recording what each
      retried attempt raised ({!retried}); [Invalid_argument] (the
      pipeline's deterministic "does not tensorize") maps to
      [not_applicable] without retrying.
    - After [Shutdown] (or {!drain}), new work gets a [draining]
      response; already-queued jobs still complete.

    Obs surface: [serve.requests] / [serve.completed] /
    [serve.coalesced] / [serve.overloaded] / [serve.retry] /
    [serve.failed] counters, the [serve.latency_us] histogram and the
    [serve.queue_depth] gauge — all interned [~always:true], so
    {!stats_json} and the metrics exposition are truthful even with
    span tracing off.

    Request-scoped tracing: every request is tagged with a trace id —
    the client's, when it supplied one, otherwise server-generated —
    and {!submit_traced} returns it so the wire loop can echo it in the
    response.  Workers run the handler under {!Unit_obs.Obs.with_trace_id},
    so pipeline spans, counter deltas and diags attribute to the
    request; [Trace]/[Metrics]/[Flight] control requests read it all
    back.  Every request additionally leaves one {!Flight} entry, so
    the flight window and [serve.latency_us] observe the same
    population and their percentiles are comparable. *)

type config = {
  domains : int;  (** worker domains *)
  queue_cap : int;  (** admission bound: queued (not in-flight) jobs *)
  retries : int;  (** extra attempts per transiently-failing job *)
}

val default_config : config
(** 4 domains, queue of 64, 1 retry. *)

type t

val create :
  ?fault:(key:string -> attempt:int -> unit) ->
  ?sleep:(float -> unit) ->
  ?handle:(Protocol.request -> Unit_obs.Json.t) ->
  ?flight_cap:int ->
  config ->
  t
(** Start the worker pool.  [handle] defaults to {!Handler.handle}.
    [fault] runs on a worker before each attempt of each job — raising
    from it simulates a worker dying mid-job (fault-injection tests);
    the default does nothing.  [sleep] performs the retry backoff wait
    (default [Unix.sleepf]; tests inject a recorder).  [flight_cap]
    sizes the flight-recorder ring (default {!Flight.default_cap}).
    @raise Invalid_argument on a non-positive pool/queue size, negative
    retries, or a non-positive [flight_cap]. *)

val submit : t -> Protocol.request -> Protocol.response
(** Blocking request/response — safe to call from any domain or thread
    concurrently.  Never raises on request content.
    [submit_traced] with a server-generated trace id. *)

val submit_traced :
  t -> ?trace_id:string -> Protocol.request -> Protocol.response * string
(** Like {!submit}, also returning the trace id the request ran under —
    [trace_id] when given (assumed pre-validated by
    {!Protocol.trace_id_of_json}), server-generated otherwise.  A
    coalesced follower keeps its own id (its response names the
    leader's as ["leader_trace_id"]; the spans live on the leader's
    trace). *)

val retried : t -> string list
(** What the most recent retried attempts (at most 8) raised, oldest
    first, each as ["KEY attempt N: EXCEPTION"]. *)

val flight : t -> Flight.t
(** The server's flight recorder (the bench harness freezes exact
    window percentiles from it). *)

val serve_connection : t -> Unix.file_descr -> unit
(** Run the wire loop on one connection until EOF: read a frame, answer
    it, repeat.  Malformed JSON or an invalid request gets a
    [bad_request] response and the connection continues; a truncated or
    oversized frame gets a final [bad_request] and the connection
    closes (the stream cannot be resynchronized).  Never raises on peer
    behavior.  Does not close [fd]. *)

val stats_json : t -> Unit_obs.Json.t
(** The [/stats] payload: server gauges/counters plus
    {!Unit_obs.Obs.stats_json}. *)

val stats_fields : t -> (string * int) list
(** The server half of {!stats_json}, as data (tests). *)

val draining : t -> bool

val drain : t -> unit
(** Graceful shutdown: stop admitting, let queued jobs finish, join all
    worker domains.  Idempotent-ish: call once, from the owner (not from
    a worker).  After [drain] the server answers control traffic via
    {!submit} but refuses work. *)
