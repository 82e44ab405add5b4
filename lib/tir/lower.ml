open Unit_dsl

type func = {
  fn_name : string;
  fn_tensors : (Tensor.t * Buffer.t) list;
  fn_output : Buffer.t;
  fn_iter_vars : (int * Var.t) list;
  fn_body : Stmt.t;
}

exception Lower_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

let flatten_index tensor indices =
  let strides = Tensor.row_major_strides tensor in
  if List.length indices <> Array.length strides then
    error "flatten_index %s: rank mismatch" tensor.Tensor.name;
  List.fold_left2
    (fun acc ix stride -> Texpr.add acc (Texpr.mul ix (Texpr.int_imm stride)))
    (Texpr.int_imm 0) indices (Array.to_list strides)

(* Interpret a schedule derivation over TIR expressions. *)
let rec texpr_of_derivation ~leaf_var = function
  | Schedule.D_leaf it -> Texpr.var (leaf_var it)
  | Schedule.D_split (o, factor, i) ->
    Texpr.add
      (Texpr.mul (texpr_of_derivation ~leaf_var o) (Texpr.int_imm factor))
      (texpr_of_derivation ~leaf_var i)
  | Schedule.D_fuse_outer (d, extent) ->
    Texpr.div (texpr_of_derivation ~leaf_var d) (Texpr.int_imm extent)
  | Schedule.D_fuse_inner (d, extent) ->
    Texpr.mod_ (texpr_of_derivation ~leaf_var d) (Texpr.int_imm extent)

let binop_of_dsl : Expr.binop -> Texpr.binop = function
  | Expr.Add -> Texpr.Add
  | Expr.Sub -> Texpr.Sub
  | Expr.Mul -> Texpr.Mul
  | Expr.Div -> Texpr.Div
  | Expr.Mod -> Texpr.Mod
  | Expr.Min -> Texpr.Min
  | Expr.Max -> Texpr.Max

(* Translate a DSL expression to TIR given the axis environment and how an
   operand access reads memory ([access] receives the translated indices). *)
let rec texpr_of_expr ~axis_env ~access (e : Expr.t) =
  let recur = texpr_of_expr ~axis_env ~access in
  match e with
  | Expr.Imm v -> Texpr.imm v
  | Expr.Axis_ref a -> axis_env a
  | Expr.Access (t, indices) -> access t (List.map recur indices)
  | Expr.Cast (dt, inner) -> Texpr.cast dt (recur inner)
  | Expr.Neg inner ->
    let inner = recur inner in
    let dt = Texpr.dtype_of inner in
    (* -0.0 - x is Value.neg bit for bit, signed zeros included; 0.0 - x
       would turn +0.0 into +0.0 instead of -0.0 *)
    let zero =
      if Unit_dtype.Dtype.is_float dt then Texpr.float_imm ~dtype:dt (-0.0)
      else Texpr.int_imm ~dtype:dt 0
    in
    Texpr.sub zero inner
  | Expr.Binop (op, a, b) -> Texpr.binop (binop_of_dsl op) (recur a) (recur b)

let for_kind_of_annotation = function
  | Schedule.Serial -> Stmt.Serial
  | Schedule.Parallel -> Stmt.Parallel
  | Schedule.Unroll -> Stmt.Unrolled
  | Schedule.Vectorize -> Stmt.Vectorized
  | Schedule.Tensorize info -> Stmt.Tensorized info
  | Schedule.Bind Schedule.Block_x -> Stmt.Gpu_block 0
  | Schedule.Bind Schedule.Block_y -> Stmt.Gpu_block 1
  | Schedule.Bind Schedule.Block_z -> Stmt.Gpu_block 2
  | Schedule.Bind Schedule.Thread_x -> Stmt.Gpu_thread 0
  | Schedule.Bind Schedule.Thread_y -> Stmt.Gpu_thread 1
  | Schedule.Bind Schedule.Thread_z -> Stmt.Gpu_thread 2

(* The initialization nest: out[spatial...] = 0 / c[spatial...], looping
   canonically over the output's own dimensions (independent of the main
   schedule). *)
let init_nest (op : Op.t) ~out_buffer ~buffer_of =
  match op.Op.init, op.Op.reduce with
  | _, [] | Op.In_place, _ -> Stmt.Nop
  | init, _ ->
    let vars =
      List.map (fun (a : Axis.t) -> (a, Var.create ("init_" ^ a.name))) op.Op.spatial
    in
    let axis_exprs = List.map (fun (_, v) -> Texpr.var v) vars in
    let out_index = flatten_index op.Op.output axis_exprs in
    let value =
      match init with
      | Op.Zero ->
        let dt = op.Op.output.Tensor.dtype in
        if Unit_dtype.Dtype.is_float dt then Texpr.float_imm ~dtype:dt 0.0
        else Texpr.int_imm ~dtype:dt 0
      | Op.Init_tensor c -> Texpr.load (buffer_of c) (flatten_index c axis_exprs)
      | Op.In_place -> assert false
    in
    List.fold_right
      (fun ((a : Axis.t), v) body -> Stmt.for_ v ~extent:a.extent body)
      vars
      (Stmt.Store (out_buffer, out_index, value))

let lower schedule =
  let op = Schedule.op schedule in
  let tensors = Op.inputs op @ [ op.Op.output ] in
  let tensor_buffers = List.map (fun t -> (t, Buffer.of_tensor t)) tensors in
  let buffer_of t =
    match List.find_opt (fun (u, _) -> Tensor.equal t u) tensor_buffers with
    | Some (_, b) -> b
    | None -> error "lower %s: tensor %s not bound" op.Op.name t.Tensor.name
  in
  let out_buffer = buffer_of op.Op.output in
  let leaves = Schedule.leaves schedule in
  let iter_vars =
    List.map (fun (it : Schedule.Iter.t) -> (it.id, Var.create it.name)) leaves
  in
  let leaf_var (it : Schedule.Iter.t) =
    match List.assoc_opt it.id iter_vars with
    | Some v -> v
    | None -> error "lower %s: iter %s has no variable" op.Op.name it.name
  in
  let axis_env a = texpr_of_derivation ~leaf_var (Schedule.derivation schedule a) in
  (* main update statement *)
  let spatial_exprs = List.map (fun a -> axis_env a) op.Op.spatial in
  let out_index = flatten_index op.Op.output spatial_exprs in
  let access t ix = Texpr.load (buffer_of t) (flatten_index t ix) in
  let body_value = texpr_of_expr ~axis_env ~access op.Op.body in
  let update =
    if Op.has_reduction op then
      Stmt.Store (out_buffer, out_index, Texpr.add (Texpr.load out_buffer out_index) body_value)
    else Stmt.Store (out_buffer, out_index, body_value)
  in
  (* one "likely" bounds test per non-exact split (TVM-style residue
     handling; Section VI-B discusses its cost on workloads #1/#4) *)
  let guarded =
    List.fold_left
      (fun body (deriv, extent) ->
        Stmt.If
          { cond =
              Texpr.cmp Texpr.Lt
                (texpr_of_derivation ~leaf_var deriv)
                (Texpr.int_imm extent);
            likely = true;
            then_ = body;
            else_ = None
          })
      update (Schedule.guards schedule)
  in
  (* loop nest over leaves, innermost last *)
  let main_nest =
    List.fold_right
      (fun (it : Schedule.Iter.t) body ->
        Stmt.for_ (leaf_var it) ~extent:it.extent
          ~kind:(for_kind_of_annotation (Schedule.annotation schedule it))
          body)
      leaves guarded
  in
  let body = Stmt.seq [ init_nest op ~out_buffer ~buffer_of; main_nest ] in
  { fn_name = op.Op.name;
    fn_tensors = tensor_buffers;
    fn_output = out_buffer;
    fn_iter_vars = iter_vars;
    fn_body = body
  }

let scalar_reference op = lower (Schedule.create op)
