open Unit_dtype
open Unit_tir

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type env = {
  vars : (int, int) Hashtbl.t;  (** Var.id -> value *)
  buffers : (int, Ndarray.t) Hashtbl.t;  (** Buffer.id -> storage *)
}

let env_empty () = { vars = Hashtbl.create 32; buffers = Hashtbl.create 8 }

let env_bind_var env (v : Var.t) x = Hashtbl.replace env.vars v.id x
let env_unbind_var env (v : Var.t) = Hashtbl.remove env.vars v.id

let resolve (func : Lower.func) bindings =
  let by_id = Hashtbl.create (List.length bindings) in
  List.iter
    (fun ((t : Unit_dsl.Tensor.t), arr) ->
      if not (Hashtbl.mem by_id t.id) then Hashtbl.add by_id t.id arr)
    bindings;
  List.map
    (fun ((t : Unit_dsl.Tensor.t), (b : Buffer.t)) ->
      match Hashtbl.find_opt by_id t.id with
      | None -> error "tensor %s not bound" t.name
      | Some arr ->
        if not (Dtype.equal arr.Ndarray.dtype b.dtype) then
          error "buffer %s: dtype mismatch (%s vs %s)" b.name
            (Dtype.to_string arr.Ndarray.dtype) (Dtype.to_string b.dtype);
        if Ndarray.num_elements arr <> b.size then
          error "buffer %s: %d elements bound, %d expected" b.name
            (Ndarray.num_elements arr) b.size;
        (b, arr))
    func.Lower.fn_tensors

let var_value env (v : Var.t) =
  match Hashtbl.find_opt env.vars v.id with
  | Some x -> x
  | None -> error "variable %s unbound" v.name

let storage env (b : Buffer.t) =
  match Hashtbl.find_opt env.buffers b.id with
  | Some arr -> arr
  | None -> error "buffer %s unbound" b.name

let read env (b : Buffer.t) addr =
  let arr = storage env b in
  if addr < 0 || addr >= Ndarray.num_elements arr then
    error "load %s[%d]: out of bounds (size %d)" b.name addr b.size;
  Ndarray.get_flat arr addr

let write env (b : Buffer.t) addr v =
  let arr = storage env b in
  if addr < 0 || addr >= Ndarray.num_elements arr then
    error "store %s[%d]: out of bounds (size %d)" b.name addr b.size;
  Ndarray.set_flat arr addr v

(* A rule per node (and [Select] evaluates one branch), so the recursion
   is written out rather than on [Texpr.fold_children]. *)
let rec eval_expr env (e : Texpr.t) =
  match e with
  | Texpr.Imm v -> v
  | Texpr.Var v -> Value.of_int v.Var.dtype (var_value env v)
  | Texpr.Load (b, ix) -> read env b (eval_int env ix)
  | Texpr.Binop (op, a, b) ->
    let f =
      match op with
      | Texpr.Add -> Value.add
      | Texpr.Sub -> Value.sub
      | Texpr.Mul -> Value.mul
      | Texpr.Div -> Value.div
      | Texpr.Mod -> Value.rem
      | Texpr.Min -> Value.min
      | Texpr.Max -> Value.max
    in
    f (eval_expr env a) (eval_expr env b)
  | Texpr.Cmp (c, a, b) ->
    let r = Value.compare_num (eval_expr env a) (eval_expr env b) in
    let truth =
      match c with
      | Texpr.Lt -> r < 0
      | Texpr.Le -> r <= 0
      | Texpr.Eq -> r = 0
      | Texpr.Ne -> r <> 0
    in
    Value.of_int Dtype.Bool (if truth then 1 else 0)
  | Texpr.And (a, b) ->
    Value.of_int Dtype.Bool (if eval_bool env a && eval_bool env b then 1 else 0)
  | Texpr.Or (a, b) ->
    Value.of_int Dtype.Bool (if eval_bool env a || eval_bool env b then 1 else 0)
  | Texpr.Not a -> Value.of_int Dtype.Bool (if eval_bool env a then 0 else 1)
  | Texpr.Cast (dt, a) -> Value.cast dt (eval_expr env a)
  | Texpr.Select (c, a, b) -> if eval_bool env c then eval_expr env a else eval_expr env b

and eval_int env e = Int64.to_int (Value.to_int64 (eval_expr env e))
and eval_bool env e = Value.to_int64 (eval_expr env e) <> 0L

let rec exec env (s : Stmt.t) =
  match s with
  | Stmt.Nop -> ()
  | Stmt.Store (b, ix, v) -> write env b (eval_int env ix) (eval_expr env v)
  | Stmt.Seq stmts -> List.iter (exec env) stmts
  | Stmt.For { var; extent; body; _ } ->
    for i = 0 to extent - 1 do
      env_bind_var env var i;
      exec env body
    done;
    env_unbind_var env var
  | Stmt.If { cond; then_; else_; _ } ->
    if eval_bool env cond then exec env then_
    else Option.iter (exec env) else_
  | Stmt.Let (v, e, body) ->
    env_bind_var env v (eval_int env e);
    exec env body;
    env_unbind_var env v
  | Stmt.Alloc (b, body) ->
    Hashtbl.replace env.buffers b.Buffer.id
      (Ndarray.zeros ~dtype:b.Buffer.dtype ~shape:[ b.Buffer.size ]);
    exec env body;
    Hashtbl.remove env.buffers b.Buffer.id
  | Stmt.Intrin_call { intrin; output; inputs } ->
    let intrin =
      match Unit_isa.Registry.find intrin with
      | Some i -> i
      | None -> error "intrinsic %s is not registered" intrin
    in
    Unit_isa.Semantics.execute intrin ~output ~inputs ~read:(read env)
      ~write:(write env) ~eval_index:(eval_int env)

let run (func : Lower.func) ~bindings =
  let env = env_empty () in
  List.iter
    (fun ((b : Buffer.t), arr) -> Hashtbl.replace env.buffers b.id arr)
    (resolve func bindings);
  exec env func.Lower.fn_body

let run_op op ~bindings = run (Lower.scalar_reference op) ~bindings
