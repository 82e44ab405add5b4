(** Compile, cache and run natively-emitted kernels.

    The pipeline from {!Emit.render}ed source to executable code:
    shell out to [ocamlfind ocamlopt -shared], [Dynlink] the resulting
    [.cmxs] (which self-registers through [Unit_emit_hook]), and memoize
    the loaded kernel per process: by source digest, and by the function
    value itself, so running a loaded kernel again renders nothing.  A
    render's warnings ({!Emit.plan}[.p_diags]) go to stderr once per
    process.  Compiled artifacts are
    content-addressed into the persistent store through
    dependency-inverted {!artifact_hooks} (installed by
    [Unit_store.Store], mirroring [Pipeline.set_tuning_store]), keyed by
    workload signature + emitter/compiler version + source digest — so a
    warm process loads native kernels from disk with zero recompilation.

    Everything degrades: no native [Dynlink], no [ocamlopt], an
    {!Emit.Unsupported} construct, a failed compile, a binding
    {!Interp.resolve} rejects (the fallback reason is its error text),
    two bound windows overlapping in one array (the
    emitted code hoists loads on the assumption that distinct buffers
    never alias), or a bounds check the kernel fails
    ([Unit_emit_hook.Out_of_window]: a window past its array at entry,
    or an unproven index outside its buffer) all fall back to
    {!Compile.run} (or {!Interp.run} when a binding is an arena view,
    which the closure engine rejects) with a one-shot [Diag] warning.
    The fallback engine then gives the result, or raises its own error.

    Obs surface: spans [emit.render] / [emit.compile] / [emit.dynlink] /
    [emit.run]; counters [emit.artifact.hit] / [emit.artifact.miss] /
    [emit.artifact.rejected] / [emit.memo.hit] / [emit.fallback]. *)

open Unit_tir

type artifact_hooks = {
  ah_dir : key:string -> string;
      (** directory that receives the installed [.cmxs] for [key]
          (created on first install).  Keyed so a sharded store can
          route each artifact next to the shard that records it. *)
  ah_lookup : key:string -> (string * string) option;
      (** path to a live (current-version, file-present) artifact and
          the hex MD5 of its payload as recorded; a file that no longer
          matches is never loaded (counted on [emit.artifact.rejected],
          one [Diag.Emit] warning on stderr, then recompiled) *)
  ah_record :
    key:string -> signature:string -> file:string -> bytes:int -> digest:string -> unit;
      (** persist a freshly compiled artifact record; [digest] is the
          hex MD5 of the installed payload *)
}

val set_artifact_hooks : artifact_hooks option -> unit
(** Install (or clear) the persistent artifact store.  Without hooks,
    compiled kernels live only in the per-process memo. *)

val available : unit -> (unit, string) result
(** Can this process emit at all?  Checks native [Dynlink], a working
    [ocamlfind ocamlopt] (or bare [ocamlopt]), and the presence of the
    [Unit_emit_hook] compilation artifacts (env [UNIT_EMITRT_DIR]
    overrides the search next to the executable).  Memoized. *)

val artifact_key : signature:string -> source:string -> string
(** Content address of a compiled kernel: digest over emitter version,
    [Sys.ocaml_version], the workload signature and the source digest. *)

type kernel = {
  k_plan : Emit.plan;
  k_fn : Unit_emit_hook.kernel;
}
(** A loaded kernel: its binding plan and the function its module
    registered through [Unit_emit_hook]. *)

val load : signature:string -> Lower.func -> (kernel, string) result
(** Render, compile and load [func] (or hit the caches) without running
    it; [Error] says why the emitted engine cannot run it.  Nothing is
    counted as a fallback. *)

val prepare : signature:string -> Lower.func -> (unit, string) result
(** Render + compile + load (or hit the caches) without running;
    the warm-up scheduler uses this to pre-bake artifacts. *)

val run :
  ?signature:string ->
  Lower.func ->
  bindings:(Unit_dsl.Tensor.t * Ndarray.t) list ->
  unit
(** Execute [func] through the emitted engine, falling back as described
    above.  The bindings are resolved by {!Interp.resolve} and loaded
    into the plan's {!Binding.layout} by {!Binding.fill}, as the closure
    engine does.  [signature] defaults to a per-function ad-hoc key (the
    source digest still content-addresses correctly); pass the
    [Pipeline.workload_signature] so artifacts are shared across
    processes.  Bit-identical to {!Interp.run} / {!Compile.run};
    arena-backed {!Ndarray.view} bindings are supported natively.
    @raise Interp.Runtime_error from the fallback engine, on binding
    mismatches (the same text on all three engines) and out-of-bounds
    accesses, as that engine raises it. *)

val last_fallback : unit -> Diag.t option
(** The most recent fallback diagnostic emitted by {!run}/{!prepare} in
    this process, for CLI surfacing and tests. *)
