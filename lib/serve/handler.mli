(** The default request handler: one protocol request in, one result
    JSON out, through the cached {!Unit_core.Pipeline} entry points.
    The handler holds no per-key state of its own: concurrent [tune]
    and [run] requests for one workload, under any engine, tune once
    because the pipeline's kernel memo is single-flight (waiters are
    counted on [pipeline.cache.wait], reported by [/stats] as
    [tensorize_shared]).

    Raising convention (what {!Server} maps to wire errors):
    [Invalid_argument] is the pipeline's deterministic "does not
    tensorize" rejection — mapped to a [not_applicable] response,
    never retried.  Any other exception is treated as transient and
    retried on the {!Unit_store.Warmup.backoff_s} schedule. *)

val handle : Protocol.request -> Unit_obs.Json.t
(** Answer a [Tune], [Run] or [Explain] request — the kinds {!Server}
    queues; it can also be called without a server.
    @raise Invalid_argument for every other kind: {!Server} answers
    those inline and never queues them. *)
