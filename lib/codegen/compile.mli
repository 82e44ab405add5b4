(** Compiled execution of lowered TIR — the interpreter fast path.

    {!compile} translates a {!Unit_tir.Lower.func} once into nested OCaml
    closures: loop variables live in a preallocated [int array] frame
    (slots resolved at compile time), loads and stores access the unboxed
    {!Ndarray} storage directly at the dtype-specialized representation,
    arithmetic is monomorphized per operand dtype, and bounds checks are
    dropped where {!Unit_tir.Linear.bounds} proves the index in range
    (array accesses themselves stay safe).  Results are bit-identical to
    {!Interp} — the tests enforce this with a differential property.

    [Intrin_call]s still execute from the instruction's DSL description
    ({!Unit_isa.Semantics}) through compiled read/write callbacks, so a
    freshly registered ISA runs on this path with zero added code.
    Intrinsics are resolved against {!Unit_isa.Registry} at compile time;
    re-registering a name does not affect already-compiled functions.

    Errors (unbound tensors, dtype/size mismatches, out-of-bounds
    accesses) raise {!Interp.Runtime_error} with the same messages as the
    tree-walker. *)

type compiled
(** A compiled function.  Immutable; one [compiled] value may execute
    concurrently on several domains (each {!run_compiled} call allocates
    its own execution state). *)

val compile : Unit_tir.Lower.func -> compiled

val run_compiled :
  compiled -> bindings:(Unit_dsl.Tensor.t * Ndarray.t) list -> unit
(** Binds each function tensor to the first matching array in [bindings]
    ({!Interp.resolve}; the {!Ndarray} storage is shared, so outputs
    mutate in place) and executes.
    @raise Interp.Runtime_error also when a binding is an arena
    {!Ndarray.view}: ["buffer B: arena views cannot be bound to compiled
    kernels"]. *)

val run : Unit_tir.Lower.func -> bindings:(Unit_dsl.Tensor.t * Ndarray.t) list -> unit
(** [run_compiled (compile func)] — drop-in replacement for
    {!Interp.run}. *)

val run_op : Unit_dsl.Op.t -> bindings:(Unit_dsl.Tensor.t * Ndarray.t) list -> unit
(** Compiled execution of the op's unscheduled scalar reference loop nest;
    drop-in replacement for {!Interp.run_op}. *)
