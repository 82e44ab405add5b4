(** The unitd request/response protocol, carried as one JSON document
    per {!Wire} frame.

    Requests:
    {v
    {"req":"ping"} | {"req":"stats"} | {"req":"shutdown"}
    {"req":"metrics"}                      Prometheus text scrape
    {"req":"trace","id":"..."}             finished trace as Chrome JSON
    {"req":"flight","last":50,"errors_only":true,"slower_than_us":1e4}
    {"req":"tune","target":"x86","engine":"compiled",
     "workload":{"op":"conv2d","c":64,"h":14,"k":128,"kernel":3}}
    {"req":"run", ...same fields...}
    {"req":"explain","target":"x86","workload":{"table1":5}}
    v}
    [target] defaults to x86, [engine] to compiled, and a workload is
    either an explicit conv2d/dense shape or a Table I row index.
    [flight]'s three filter fields are all optional.

    Any request may additionally carry a ["trace_id"] field (1–128
    bytes of [[a-zA-Z0-9._:-]]) naming the trace the request's work is
    tagged under; the server generates one when absent and echoes it as
    a ["trace_id"] field in every response either way.  Unknown fields
    are ignored everywhere.

    Responses: [{"status":"ok","result":...}] or
    [{"status":"error","code":"...","message":"..."}] where [code] is
    one of [bad_request], [overloaded], [draining], [not_applicable],
    [internal].  Malformed input of any kind maps to a [bad_request]
    response — never a dropped connection without an answer, never a
    crash (the wire fuzz tests pin this). *)

type workload =
  | Conv of Unit_graph.Workload.conv2d
  | Dense of Unit_graph.Workload.dense
  | Table1 of int  (** 1-based Table I row *)

type request =
  | Ping
  | Stats
  | Shutdown
  | Load_isa of { path : string }
      (** load a declarative [.uisa] instruction pack (server-side path)
          into the daemon's registry; answered inline like the other
          control requests.  Idempotent for identical semantics,
          [Bad_request] on a digest conflict or an invalid pack. *)
  | Trace of { id : string }
      (** fetch a finished trace by id as a Chrome-trace JSON document;
          [Bad_request] when the id is unknown (never begun, or evicted
          from the bounded trace store). *)
  | Metrics
      (** one Prometheus text-exposition scrape of the live counters,
          gauges and histograms; the result is
          [{"content_type":...,"body":...}]. *)
  | Flight of {
      last : int option;
      errors_only : bool;
      slower_than_us : float option;
    }
      (** the flight-recorder window (oldest first) after the filters,
          with exact nearest-rank p50/p99 over the {e whole} unfiltered
          window. *)
  | Tune of {
      target : Unit_core.Pipeline.target;
      engine : Unit_core.Pipeline.engine;
      workload : workload;
    }
  | Run of {
      target : Unit_core.Pipeline.target;
      engine : Unit_core.Pipeline.engine;
      workload : workload;
    }
  | Explain of { target : Unit_core.Pipeline.target; workload : workload }

type error_code =
  | Bad_request  (** unparseable or invalid request *)
  | Overloaded  (** admission control: queue full, try again later *)
  | Draining  (** daemon is shutting down, not accepting work *)
  | Not_applicable  (** deterministic rejection: workload does not tensorize *)
  | Internal  (** handler failed after retries *)

type response =
  | Result of Unit_obs.Json.t
  | Failure of error_code * string

val code_to_string : error_code -> string
val code_of_string : string -> error_code option

val to_workload : workload -> Unit_graph.Workload.t
(** The pipeline workload a request names ([Table1 i] is row [i]). *)

val workload_name : workload -> string
(** The display name responses echo as their ["workload"]:
    {!Unit_graph.Workload.name}, or ["table1:N"].  It does not identify
    a kernel; {!coalesce_key} does not read it. *)

val kind_name : request -> string
(** The request's wire name ([ping], [tune], …) — what flight-recorder
    entries use as the key for control traffic. *)

val coalesce_key : request -> string option
(** The request's coalescing identity — kind, engine and the kernel's
    {!Unit_core.Pipeline.kernel_key} (target, instruction and every
    field of the workload, so two convs that differ only in padding
    never coalesce), plus the row of a [Table1 i] request, so it
    coalesces only with [Table1 i] and a follower's echoed ["workload"]
    stays its own — or [None] for control requests
    (ping/stats/shutdown/load_isa/trace/metrics/flight), which are
    answered inline and never queued. *)

val workload_of_json : Unit_obs.Json.t -> (workload, string) result
val workload_to_json : workload -> Unit_obs.Json.t

val request_of_json : Unit_obs.Json.t -> (request, string) result
val request_to_json : request -> Unit_obs.Json.t

val trace_id_of_json : Unit_obs.Json.t -> (string option, string) result
(** The optional ["trace_id"] field of a request document: [Ok None]
    when absent, [Ok (Some id)] when present and well-formed (1–128
    bytes of [[a-zA-Z0-9._:-]]), [Error] otherwise. *)

val parse_request : string -> (request, string) result
(** [request_of_json] over a raw frame payload; a JSON parse failure is
    an [Error] like any other malformed request. *)

val response_to_json : ?trace_id:string -> response -> Unit_obs.Json.t
(** [trace_id], when given, is appended as a ["trace_id"] field to both
    ok and error documents — the echo every daemon response carries. *)

val response_of_json : Unit_obs.Json.t -> (response, string) result

val call : string -> request -> (Unit_obs.Json.t, string) result
(** [call socket_path req] — {!Wire.call} with [req] encoded, the
    response decoded: [Ok result] for an ok response, [Error
    "code: message"] for a structured failure, and [Error] for a
    transport failure or a response that is not a protocol document. *)

val digest_ndarray : Unit_codegen.Ndarray.t -> string
(** Canonical content digest of an execution result, element-exact
    (integers printed exactly, floats by their IEEE bits).  The soak
    harness compares this between daemon responses and direct
    [Pipeline] runs — equal digests mean bit-identical outputs. *)
