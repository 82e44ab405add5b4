(** Lowering a scheduled tensor Op to tensor IR (Section IV-B, step 3's
    input).

    The generated program is the {e always-correct} canonical form:

    {v
    for spatial axes: out[...] = init        (unless In_place)
    for leaf iters (scheduled order):
      if likely(axis guards): out[spatial] (+)= body
    v}

    Loop kinds carry the schedule annotations; the tensorize pragma
    survives as a [Tensorized] loop kind for {!Unit_rewriter}'s replacement
    pass (implemented downstream to keep this library ISA-free). *)

type func = {
  fn_name : string;
  fn_tensors : (Unit_dsl.Tensor.t * Buffer.t) list;
      (** every tensor of the op (inputs then output) and its buffer *)
  fn_output : Buffer.t;
  fn_iter_vars : (int * Var.t) list;  (** leaf iter id -> loop variable *)
  fn_body : Stmt.t;
}

exception Lower_error of string

val lower : Unit_dsl.Schedule.t -> func
(** @raise Lower_error on malformed schedules (e.g. a [Tensorize]
    annotation would also be checked downstream). *)


val flatten_index : Unit_dsl.Tensor.t -> Texpr.t list -> Texpr.t
(** Row-major flattening of a multi-dimensional index. *)

val texpr_of_expr :
  axis_env:(Unit_dsl.Axis.t -> Texpr.t) ->
  access:(Unit_dsl.Tensor.t -> Texpr.t list -> Texpr.t) ->
  Unit_dsl.Expr.t ->
  Texpr.t
(** Translate a DSL expression with {!Unit_dtype.Value}'s semantics;
    [access] reads a tensor at the translated indices.
    @raise Texpr.Type_error on an ill-typed expression. *)

val scalar_reference : Unit_dsl.Op.t -> func
(** [lower (Schedule.create op)]: the unscheduled, purely scalar program —
    the correctness oracle every tensorized variant is checked against. *)
