(** The daemon's flight recorder: a bounded ring of per-request
    completion records, kept regardless of whether span tracing is on.

    Every request that reaches {!Server.submit} leaves exactly one
    entry when its response is ready — leaders, coalesced followers,
    control traffic and structured failures alike — so the window is a
    complete, exact record of the daemon's recent past: percentiles
    over it are measured over every request in the window, not sampled.
    Below capacity nothing is ever lost; above it eviction is strict
    FIFO (the qcheck ring property pins both).  The critical section is
    one array store and an increment. *)

type entry = {
  fl_trace : string;  (** request trace id *)
  fl_key : string;  (** coalesce key, or the request kind for control traffic *)
  fl_outcome : string;  (** ["ok"] or the structured error code *)
  fl_coalesced : bool;  (** adopted another request's in-flight job *)
  fl_queue_us : float;  (** submit → job start (0 for inline answers) *)
  fl_run_us : float;  (** job start → response ready *)
  fl_engine : string;  (** requested engine, [""] for control traffic *)
  fl_store_hit : bool;  (** the request's trace saw a tuning-store disk hit *)
}

type t

val default_cap : int
(** 4096. *)

val create : ?cap:int -> unit -> t
(** @raise Invalid_argument when [cap < 1]. *)

val cap : t -> int

val record : t -> entry -> unit

val recorded : t -> int
(** Total entries ever recorded (≥ the window size). *)

val total_us : entry -> float
(** [fl_queue_us +. fl_run_us] — the request's total latency, the same
    quantity the [serve.latency_us] histogram observes. *)

val entries :
  ?last:int -> ?errors_only:bool -> ?slower_than_us:float -> t -> entry list
(** The live window, oldest first.  [errors_only] keeps non-["ok"]
    outcomes; [slower_than_us] keeps entries with [total_us] strictly
    above the bound; [last] keeps the newest N after the other filters.
    @raise Invalid_argument when [last < 0]. *)

val exact_percentile : entry list -> float -> float
(** {!Unit_obs.Obs.percentile} of {!total_us} over the given entries —
    exact over the window.  [0.0] on an empty list. *)

val entry_to_json : entry -> Unit_obs.Json.t
val entry_of_json : Unit_obs.Json.t -> (entry, string) result

val pp_entry : Format.formatter -> entry -> unit

val dump : ?last:int -> out_channel -> t -> unit
(** Human-readable tail of the window (default last 32) — what the
    server prints to stderr when a worker dies or answers [internal]. *)
