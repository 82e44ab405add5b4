(** Reference interpreter for tensor IR programs.

    Executes a lowered function against {!Ndarray} bindings.  Every loop
    kind runs sequentially — annotations only matter to the machine model —
    {e except} [Intrin_call], which is executed from the instruction's own
    DSL description via {!Unit_isa.Semantics}.  This is the correctness
    oracle: a tensorized program must produce bit-identical integer results
    (and fp results up to rounding) to the scalar reference lowering. *)

open Unit_tir

exception Runtime_error of string

type env

val resolve :
  Lower.func -> (Unit_dsl.Tensor.t * Ndarray.t) list -> (Buffer.t * Ndarray.t) list
(** The binding rule of all three engines: each tensor of the function,
    in [fn_tensors] order, with its buffer and the {e first} array bound
    to it, which must have the buffer's dtype and element count.
    @raise Runtime_error ["tensor T not bound"],
    ["buffer B: dtype mismatch (D vs D')"] or
    ["buffer B: N elements bound, M expected"]. *)

val run : Lower.func -> bindings:(Unit_dsl.Tensor.t * Ndarray.t) list -> unit
(** Executes the body, mutating the bound arrays in place, after
    {!resolve}.
    @raise Runtime_error on missing/mismatched bindings, out-of-bounds
    accesses, or a reference to an unregistered intrinsic. *)

val run_op : Unit_dsl.Op.t -> bindings:(Unit_dsl.Tensor.t * Ndarray.t) list -> unit
(** [run (Lower.scalar_reference op)]: convenience oracle. *)

val eval_expr : env -> Texpr.t -> Unit_dtype.Value.t
(** Exposed for unit tests of expression evaluation. *)

val env_empty : unit -> env
val env_bind_var : env -> Var.t -> int -> unit
