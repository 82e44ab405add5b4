(** Persistent, content-addressed tuning database.

    The expensive step of the pipeline is the tuner's exhaustive
    breaking-point sweep (Section V, Fig. 7); everything after it —
    realizing one config, lowering, replacing — is cheap and
    deterministic.  So what persists across processes is the {e tuned
    config}, not the compiled closure: an append-only JSONL file of
    records keyed by a canonical content hash of (workload shapes+dtypes,
    target spec, ISA name, tuner/schema version), in the AutoTVM /
    LoopStack tuning-log tradition.  On warm start the pipeline
    recompiles from the stored config via {!Unit_rewriter.Cpu_tuner.of_config},
    skipping the sweep entirely.

    Robustness contract: loading never raises on bad data.  Lines that do
    not parse, fail field validation, or whose stored key does not match
    the recomputed content hash are skipped and surfaced as
    [Unit_tir.Diag.Store] warnings; lines whose schema or tuner version
    differs are counted stale and skipped the same way (a version bump
    re-tunes rather than replaying configs that changed meaning).

    Durability: each {!record} appends one line under a mutex with a
    single buffered write+flush.  A record is committed once its newline
    is on disk: a torn trailing line (a crash mid-append) is skipped as
    corrupt on load, and the next append first truncates the file back
    to its committed prefix, so a new record never glues onto the torn
    one.  {!save} rewrites the whole file compacted (one line per key,
    latest wins) via tmp + atomic rename.

    All entry points are safe for concurrent calls from
    {!Unit_codegen.Parallel_oracle} domains. *)

module Cpu_tuner := Unit_rewriter.Cpu_tuner

val schema_version : int
(** Version of the on-disk record layout (this module); independent of
    {!Unit_rewriter.Cpu_tuner.version}, which versions the meaning of the
    stored configs.  Both are folded into the key and checked on load. *)

type record = {
  r_key : string;  (** content address: {!key_of_signature} of [r_signature] *)
  r_signature : string;
      (** the canonical {!Unit_core.Pipeline.workload_signature} *)
  r_workload : string;  (** human-readable workload/op label *)
  r_isa : string;
  r_target : string;
  r_config : Cpu_tuner.config;
  r_cycles : float;  (** the machine model's estimate for the winner *)
  r_diag_digest : string;
      (** digest of the analyzer diagnostics the kernel was accepted with *)
  r_report : Unit_machine.Cost_report.t option;
      (** cycle attribution of the winner; [None] on records persisted
          before attribution existed (optional JSON trailer, same schema
          version) *)
}

type artifact = {
  a_key : string;
      (** content address from {!Unit_codegen.Emit_cache.artifact_key}:
          emitter version + compiler + signature + source digest *)
  a_signature : string;  (** the workload signature, for humans and GC *)
  a_emitter : int;  (** {!Unit_codegen.Emit.version} at record time *)
  a_compiler : string;  (** [Sys.ocaml_version] at record time *)
  a_file : string;  (** basename of the [.cmxs] inside {!artifacts_dir} *)
  a_bytes : int;
  a_digest : string;
      (** hex MD5 of the payload at record time; [""] for a record
          written without one, which is never live *)
}
(** One compiled native kernel persisted by the emission engine.
    Artifact records share the tuning store's JSONL file (discriminated
    by a ["kind":"artifact"] member); the [.cmxs] payloads live next to
    it in {!artifacts_dir}. *)

type stats = {
  st_records : int;  (** live records (deduped by key, latest wins) *)
  st_artifacts : int;  (** live native-kernel artifact records *)
  st_loaded : int;  (** valid lines read by {!open_} *)
  st_corrupt : int;  (** lines skipped: unparseable / invalid / key mismatch *)
  st_stale : int;  (** lines skipped: schema or tuner version mismatch *)
  st_hits : int;  (** successful {!lookup}s since open *)
  st_misses : int;
  st_appends : int;  (** {!record}s since open *)
}

type t

val key_of_signature : string -> string
(** Content address of a canonical workload signature: a hex digest
    binding the signature to {!schema_version} and
    {!Unit_rewriter.Cpu_tuner.version}. *)

val diag_digest : Unit_tir.Diag.t list -> string
(** Order-sensitive digest of a diagnostic list (the store's provenance
    trail: which warnings the persisted kernel was accepted with). *)

val open_ : string -> t * Unit_tir.Diag.t list
(** Open (creating if absent) the JSONL store at a path and load every
    live record.  Returns recovery warnings — one [Diag.Store] warning
    per corrupt or stale line — and never raises on bad content.
    @raise Sys_error only if the path itself cannot be read or created. *)

val path : t -> string

val lookup : t -> signature:string -> record option
(** Content-addressed lookup; bumps [store.disk.hit] / [store.disk.miss]
    (and {!stats}). *)

val record :
  ?report:Unit_machine.Cost_report.t ->
  t ->
  signature:string ->
  workload:string ->
  isa:string ->
  target:string ->
  config:Cpu_tuner.config ->
  cycles:float ->
  diag_digest:string ->
  unit
(** Insert-or-replace in memory and append one JSONL line to disk. *)

val size : t -> int
val stats : t -> stats
val iter : t -> (record -> unit) -> unit
(** Live records in unspecified order. *)

val save : t -> unit
(** Compact the store: rewrite the file with one line per key (latest
    wins), via tmp file + atomic rename. *)

val pipeline_hooks : t -> Unit_core.Pipeline.tuning_store
(** The store as the pipeline sees it: [ts_lookup] resolves a signature
    to its stored config, [ts_record] persists a freshly tuned kernel
    (config + estimated cycles + diagnostics digest).  Install with
    {!Unit_core.Pipeline.set_tuning_store}. *)

(** {2 Native-kernel artifacts} *)

val artifacts_dir : t -> string
(** [<path>.artifacts/] — sibling directory holding the [.cmxs]
    payloads; created lazily on first install. *)

val artifact_lookup : t -> key:string -> artifact option
(** The {e live} artifact under a key: a payload digest on record,
    current {!Unit_codegen.Emit.version}, current [Sys.ocaml_version],
    payload file present on disk.  Records failing any of those return
    [None] (and are {!gc} fodder). *)

val artifact_record :
  t -> key:string -> signature:string -> file:string -> bytes:int -> digest:string -> unit
(** Insert-or-replace (stamped with the current emitter/compiler
    versions) and append one JSONL line. *)

val iter_artifacts : t -> (artifact -> unit) -> unit
(** Every artifact record, live or stale, in unspecified order. *)

val emit_hooks : t -> Unit_codegen.Emit_cache.artifact_hooks
(** The store as the emission engine sees it.  Install with
    {!Unit_codegen.Emit_cache.set_artifact_hooks}. *)

type gc_report = {
  gc_live : int;  (** artifact records kept *)
  gc_dropped : int;  (** artifact records dropped (stale version / missing file) *)
  gc_deleted_files : int;  (** unreferenced files removed from {!artifacts_dir} *)
  gc_reclaimed_bytes : int;  (** total size of those files *)
}

val gc : t -> gc_report
(** Drop artifact records that are not live (payload file missing, no
    payload digest, or a stale emitter/compiler version), delete files
    in {!artifacts_dir} no live record references, then {!save} (which
    also compacts away corrupt and stale lines).  Tuning records are
    untouched. *)
