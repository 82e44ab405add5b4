(** Sharded tuning store: N independent {!Store} shards behind one
    facade, for concurrent writers that must not serialize on a single
    mutex + append file.  This is the one on-disk store layout every
    binary opens; a legacy single-file {!Store} enters a binary only
    through {!migrate}.

    Layout: a directory holding [shard-%02d.jsonl] files (each a plain
    {!Store} JSONL database with its own [.artifacts/] sibling) plus a
    [shards] meta file pinning the shard count, written by tmp + rename.
    A record's shard is a pure function of its content address — the
    first two hex digits of {!Store.key_of_signature} modulo the shard
    count — so lookups and writes touch exactly one shard, and shards
    never rebalance behind a reader's back: the on-disk count always
    wins over the [?shards] argument when reopening.

    Every {!Store} robustness property is inherited per shard: a corrupt
    shard file degrades to that shard's [Diag.Store] warnings while the
    other shards keep serving — one bad file never takes down the
    database. *)

val default_shards : int
(** 8 — plenty of write concurrency for a domain pool while keeping a
    directory listing readable. *)

type t

val open_ : ?shards:int -> string -> t * Unit_tir.Diag.t list
(** Open (creating if absent) the sharded store rooted at a directory.
    [shards] (default {!default_shards}) only applies on first creation;
    reopening uses the persisted count.  Returns the concatenated
    per-shard recovery warnings; like {!Store.open_}, never raises on
    bad shard {e content}.
    @raise Sys_error when the path exists but is not a directory (the
    message names [unitc store-migrate]), its parent directory is
    missing, or the meta file is empty, malformed or unreadable.
    @raise Invalid_argument when [shards < 1]. *)

val dir : t -> string
val shard_count : t -> int

val shard : t -> int -> Store.t
(** Direct access to one shard (tests, corruption drills). *)

val shard_of_key : t -> string -> int
(** The routing function, exposed so tests can pin the invariant:
    records land on the shard their key's hex prefix selects. *)

val lookup : t -> signature:string -> Store.record option

val record :
  ?report:Unit_machine.Cost_report.t ->
  t ->
  signature:string ->
  workload:string ->
  isa:string ->
  target:string ->
  config:Unit_rewriter.Cpu_tuner.config ->
  cycles:float ->
  diag_digest:string ->
  unit

val size : t -> int
val iter : t -> (Store.record -> unit) -> unit
val save : t -> unit

val stats : t -> Store.stats
(** Aggregated over all shards (field-wise sum). *)

val gc : t -> Store.gc_report
(** {!Store.gc} on every shard, reports summed. *)

val pipeline_hooks : t -> Unit_core.Pipeline.tuning_store
(** Like {!Store.pipeline_hooks}, routing each signature to its shard —
    concurrent tuners recording different shards do not contend. *)

val emit_hooks : t -> Unit_codegen.Emit_cache.artifact_hooks
(** Like {!Store.emit_hooks}; each artifact (record and [.cmxs] payload)
    lives next to the shard its key routes to. *)

val with_installed : string -> (t -> Unit_tir.Diag.t list -> 'a) -> 'a
(** [with_installed dir f] opens the store at [dir] ({!open_}), installs
    its {!pipeline_hooks} and {!emit_hooks} process-wide, and runs [f]
    with the store and its recovery warnings; then uninstalls the hooks
    and {!save}s, also when [f] raises.
    @raise Sys_error as {!open_}. *)

(** {2 Migration} *)

type migration = {
  mg_records : int;  (** tuning records copied *)
  mg_artifacts : int;  (** live artifacts copied (payload files included) *)
}

val migrate : t -> legacy:string -> migration * Unit_tir.Diag.t list
(** Load a legacy single-file {!Store} at [legacy] and copy every live
    tuning record — and every live artifact, payload file included —
    into the owning shards, then {!save}.  Stale artifacts are left
    behind (re-recording them would re-stamp and wrongly resurrect
    them).  The legacy store is not modified.  Returned diags are the
    legacy store's recovery warnings. *)
