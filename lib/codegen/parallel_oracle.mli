(** Domain pool for embarrassingly-parallel oracle work.

    Fans independent work — per-(op, ISA) differential comparisons,
    warm-up compile jobs, emitted [Parallel] loops — across OCaml 5
    domains.  [f] must be safe to run concurrently on distinct items; the
    compiled interpreter qualifies as long as the items do not share output
    arrays. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], overridable with the
    [UNIT_DOMAINS] environment variable (a positive integer). *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  Runs sequentially when [domains <= 1]
    or the list has at most one element.  If any application raises, the
    first exception is re-raised on the caller after all domains joined;
    remaining items may be skipped. *)

val iter : ?domains:int -> ('a -> unit) -> 'a list -> unit

val try_map : ?domains:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Like {!map}, but an exception from [f] lands in that item's slot as
    [Error] instead of aborting the whole pool — the warm-up scheduler
    uses this so one failing workload cannot sink the batch. *)
