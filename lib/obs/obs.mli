(** Zero-dependency observability: hierarchical trace spans, named
    counters and histograms, with human-table / JSON / Chrome
    [trace_event] sinks.

    Everything is gated on a single atomic [enabled] flag.  When tracing
    is disabled every entry point is a no-op: [start] returns
    [null_span] without touching any buffer, [incr]/[observe] return
    immediately, and instrumented call sites are expected to guard any
    string construction behind [enabled ()].  Span recording is
    domain-safe: each domain appends to its own buffer (via
    [Domain.DLS]), so [Parallel_oracle] workers can record without
    contention; only buffer registration takes a lock.

    Timing uses the POSIX monotonic clock (via a one-function C stub —
    OCaml's [Unix] exposes no [clock_gettime]), falling back to
    [Unix.gettimeofday] where monotonic time is unavailable, so a
    wall-clock step can never produce a negative-duration span.  Spans
    are intervals in seconds on that clock. *)

(** {1 Global switch} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded spans, zero all counters and histograms (count,
    sum, min, max and bucket counts) and clear the per-trace store.
    Registered counter/histogram handles and gauge callbacks stay
    valid. *)

val monotonic_available : bool
(** Whether span timing runs on the monotonic clock ([true] everywhere
    the C stub's [clock_gettime(CLOCK_MONOTONIC)] works). *)

val now : unit -> float
(** The span clock: monotonic seconds when available, else
    [Unix.gettimeofday].  Exposed so latency measurements elsewhere
    (e.g. the daemon's flight recorder) share the span timebase. *)

(** {1 Trace context}

    A request-scoped trace id carried in [Domain.DLS].  While a context
    is set on a domain, every span opened there is tagged with the id
    and copied into a bounded per-trace store when it closes, every
    counter increment is additionally attributed to the trace (always —
    attribution is gated on the context, not on [enabled], so
    per-request accounting stays truthful with tracing off), and
    {!trace_diag} tags diagnostics.  The store retains the most recent
    [trace_cap] (default 256) traces, FIFO-evicted. *)

val current_trace_id : unit -> string option

val with_trace_id : string option -> (unit -> 'a) -> 'a
(** Run with the context set, restoring the previous context after —
    the daemon worker wraps each request handler call in this. *)

val trace_begin : string -> unit
(** Register a trace id in the bounded store (idempotent).  Activity
    attributed to an id never begun — or already evicted — is silently
    dropped, so stray contexts cannot grow the store. *)

val trace_known : string -> bool
val set_trace_cap : int -> unit
val trace_ids : unit -> string list
(** Retained trace ids, oldest first. *)

val trace_counters : string -> (string * int) list option
(** Counter deltas attributed to the trace (name-sorted), [None] for an
    unknown id. *)

val trace_counter_value : string -> string -> int
(** [trace_counter_value id name] — 0 when absent or unknown. *)

val trace_diag : string -> unit
(** Tag a diagnostic message onto the current trace context (no-op
    without one). *)

val trace_diags : string -> string list option
(** Diagnostics tagged onto the trace, oldest first. *)

(** {1 Spans} *)

type span = int
(** A token for an open span, private to the domain that started it.
    [null_span] is returned when tracing is disabled. *)

val null_span : span

val start : ?detail:string -> string -> span
(** [start name] opens a span named [name] in the current domain,
    nested under the innermost open span of this domain.  O(1), no
    allocation beyond the record itself; returns [null_span] (and
    records nothing) when disabled. *)

val stop : span -> unit
(** Close a span returned by [start].  Must run in the same domain.
    [stop null_span] is a no-op. *)

val with_span : ?detail:string -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span, closing it even if
    [f] raises.  Convenience wrapper — hot paths that must not allocate
    a closure should use [start]/[stop] directly. *)

val annotate : span -> string -> unit
(** Append detail to a span discovered after it was opened (e.g. a
    computed output shape).  Joined to any existing detail with a space.
    Must run in the starting domain; no-op on [null_span] or [""]. *)

(** {1 Counters} *)

type counter

val counter : ?always:bool -> string -> counter
(** Intern a counter by name (idempotent: same name, same handle; the
    [always] flag is fixed at first intern).  Register handles once at
    module init, not on hot paths.  [~always:true] makes the counter
    unconditional — it counts with tracing disabled, for numbers that
    must stay truthful in a daemon's /stats and metrics exposition. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** No-ops while disabled unless the counter was interned with
    [~always:true].  Per-trace attribution (see {!with_trace_id}) happens
    regardless of the [enabled] gate whenever a context is set. *)

val value : counter -> int

(** {1 Histograms} *)

type histogram

type hist_stats = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

val histogram : ?always:bool -> string -> histogram
(** Intern a histogram by name (idempotent; the [always] flag is fixed
    at first intern — [~always:true] records with tracing disabled). *)

val observe : histogram -> float -> unit
(** No-op while disabled unless interned with [~always:true]. *)

val hist_stats : histogram -> hist_stats
(** Count, sum, min and max are exact.  [h_p50]/[h_p90]/[h_p99] are
    [min (bucket_quantile h q) h_max], taken from one locked snapshot of
    the buckets: each is a true upper bound on the nearest-rank
    percentile of the whole stream, never more than one power of two
    above it (for percentiles [>= 1]), and a histogram holding a single
    value reports that value exactly. *)

val percentile : float array -> float -> float
(** [percentile sorted q] — the nearest-rank [q]-th percentile
    ([q] in [0, 100]) of an ascending-sorted array: the element at
    1-based rank [max 1 (ceil (q * n / 100))], clamped to the last.
    [0.0] on an empty array.  The one nearest-rank rule: histogram
    buckets and the daemon's flight-recorder window use it too. *)

(** {2 Fixed log-spaced buckets}

    Every histogram counts observations into fixed power-of-two buckets
    (upper bounds [2^0 .. 2^41], then [+Inf]; values [<= 1] including
    zero/negatives land in the first).  Bucket counts cover every
    observation ever made, so bucket-derived quantiles are exact upper
    bounds at one-power-of-two resolution — this is what the Prometheus
    exposition ({!Metrics}) renders. *)

val n_buckets : int
val bucket_bounds : float array
(** Length {!n_buckets}; last element is [infinity]. *)

val bucket_index : float -> int
(** The bucket an observation lands in. *)

val hist_buckets : histogram -> int array
(** Per-bucket (non-cumulative) counts, length {!n_buckets}. *)

val bucket_quantile : histogram -> float -> float
(** [bucket_quantile h 99.0] — the upper bucket bound of the
    nearest-rank 99th percentile of the whole stream; exact-by-bucket,
    never sampled.  [0.0] on an empty histogram. *)

(** {1 Gauges}

    Named callback gauges for live values (queue depth, cache
    occupancy) sampled at snapshot time.  Registration replaces by
    name; a callback that raises is skipped in {!gauges}. *)

val register_gauge : string -> (unit -> float) -> unit
val gauges : unit -> (string * float) list

(** {1 Snapshots} *)

type span_record = {
  sp_name : string;
  sp_detail : string;  (** [""] when none *)
  sp_domain : int;  (** id of the recording domain *)
  sp_id : int;  (** unique within [sp_domain] *)
  sp_parent : int;  (** [sp_id] of the enclosing span, [-1] for roots *)
  sp_trace : string;  (** request trace id, [""] when not request-scoped *)
  sp_begin : float;  (** seconds on the span clock ({!now}) *)
  sp_end : float;  (** [< sp_begin] iff the span was never closed *)
}

val trace_spans : string -> span_record list option
(** Closed spans attributed to the trace, sorted by (domain, id);
    [None] for an unknown id. *)

val span_closed : span_record -> bool

val spans : unit -> span_record list
(** All recorded spans, sorted by (domain, id) — i.e. per-domain
    program order. *)

val counters : unit -> (string * int) list
(** Name-sorted; zero-valued counters are included once registered. *)

val histograms : unit -> (string * hist_stats) list
(** Name-sorted; empty histograms are included once registered. *)

val histogram_handles : unit -> (string * histogram) list
(** Name-sorted handles to every registered histogram — the metrics
    renderer walks these for bucket counts. *)

(** {1 Aggregation and sinks} *)

type agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;  (** summed wall seconds *)
  agg_min : float;
  agg_max : float;
}

val aggregate_spans : span_record list -> agg list
(** Group spans by name; name-sorted.  Unclosed spans count toward
    [agg_count] but contribute no time. *)

val pp_summary_aggs : Format.formatter -> agg list -> unit
(** The fixed-width span table — pure, for golden tests. *)

val pp_counters : Format.formatter -> (string * int) list -> unit
(** The fixed-width counter table — pure, for golden tests. *)

val pp_histograms : Format.formatter -> (string * hist_stats) list -> unit
(** The fixed-width histogram table; the [p50<=]/[p90<=]/[p99<=]
    columns are the bucket bounds of {!hist_stats}. *)

val pp_summary : Format.formatter -> unit -> unit
(** Live sink: spans aggregated + counters + histograms, via the pure
    printers above. *)

val chrome_trace : unit -> Json.t
(** Chrome [trace_event] JSON: an object with a ["traceEvents"] array of
    phase-["X"] complete events (one per closed span; [tid] = domain,
    microsecond timestamps relative to the earliest span; request-scoped
    spans carry ["args"]["trace_id"]), plus ["counters"] and
    ["histograms"] objects. *)

val trace_chrome : string -> Json.t option
(** The finished span tree of one request-scoped trace as a Chrome
    trace document — only the spans, counter deltas and diagnostics
    attributed to that id, plus a top-level ["trace_id"].  [None] for an
    id never begun or already evicted.  The payload of the daemon's
    [trace] request. *)

val write_chrome_trace : string -> unit
(** [write_chrome_trace path] writes [chrome_trace ()] to [path]. *)

val stats_json : unit -> Json.t
(** One JSON snapshot of the whole Obs surface — counters, non-empty
    histograms (with p50/p90/p99) and span aggregates — the payload of
    the daemon's [/stats] request.  Reflects whatever has been recorded;
    with tracing disabled the numbers are simply zero/empty. *)

(** {1 Span taxonomy} *)

val tensorize_stages : string list
(** The five pipeline stage span names, in pipeline order:
    [tensorize.inspect], [tensorize.reorganize], [tensorize.tune],
    [tensorize.lower_replace], [tensorize.analyze].  Used by
    [unitc trace-lint] and the [@obs-smoke] alias. *)
