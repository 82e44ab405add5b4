open Unit_dtype
open Unit_dsl
open Unit_tir

exception Execution_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt

let tile_address (tile : Stmt.tile) ~env ~eval_index =
  List.fold_left
    (fun acc (axis_name, stride) -> acc + (stride * env axis_name))
    (eval_index tile.Stmt.tile_base)
    tile.Stmt.tile_strides

(* An instruction's iteration space (spatial axes, then reduce axes) and
   its operands in the order a call resolves them: the init operand first,
   so a missing one is reported before missing body operands.  Shared by
   the closure translation and the TIR expansion, so both apply the same
   tile checks. *)
type shape = {
  s_intrin : Intrin.t;
  s_axes : Axis.t array;
  s_n_spatial : int;
  s_operands : Tensor.t array;
}

let shape_of (intrin : Intrin.t) =
  let op = intrin.Intrin.op in
  let init_tensors =
    match op.Op.init with Op.Init_tensor c -> [ c ] | Op.Zero | Op.In_place -> []
  in
  let operands =
    List.fold_left
      (fun acc (t : Tensor.t) ->
        if List.exists (fun (u : Tensor.t) -> u.Tensor.name = t.Tensor.name) acc then acc
        else acc @ [ t ])
      []
      (init_tensors @ Expr.tensors_of op.Op.body)
  in
  { s_intrin = intrin;
    s_axes = Array.of_list (op.Op.spatial @ op.Op.reduce);
    s_n_spatial = List.length op.Op.spatial;
    s_operands = Array.of_list operands
  }

(* Name -> slot; the last declaration wins on a name collision, matching
   the innermost-shadowing of the old association-list environment. *)
let axis_slot sh name =
  let found = ref (-1) in
  Array.iteri (fun j (a : Axis.t) -> if String.equal a.Axis.name name then found := j) sh.s_axes;
  if !found < 0 then None else Some !found

let operand_slot sh name =
  match Array.find_index (fun (t : Tensor.t) -> t.Tensor.name = name) sh.s_operands with
  | Some i -> i
  | None -> error "%s: operand %s not supplied" sh.s_intrin.Intrin.name name

let input_tile sh inputs name =
  match List.assoc_opt name inputs with
  | Some tile -> tile
  | None -> error "%s: operand %s not supplied" sh.s_intrin.Intrin.name name

(* The checks a call passes before any address is computed: every strided
   axis exists; the output and init tiles, addressed outside the reduce
   loops, stride over spatial axes only (reduce axes are unbound there);
   every operand is supplied. *)
let check_call sh ~(output : Stmt.tile) ~inputs =
  let name = sh.s_intrin.Intrin.name in
  let check_axes ~spatial (tile : Stmt.tile) =
    List.iter
      (fun (axis_name, _) ->
        match axis_slot sh axis_name with
        | None -> error "%s: tile references unknown axis %s" name axis_name
        | Some j when spatial && j >= sh.s_n_spatial ->
          error "%s: axis %s unbound" name axis_name
        | Some _ -> ())
      tile.Stmt.tile_strides
  in
  check_axes ~spatial:false output;
  List.iter (fun (_, tile) -> check_axes ~spatial:false tile) inputs;
  check_axes ~spatial:true output;
  Array.iter
    (fun (t : Tensor.t) -> ignore (input_tile sh inputs t.Tensor.name : Stmt.tile))
    sh.s_operands;
  match sh.s_intrin.Intrin.op.Op.init with
  | Op.Init_tensor c -> check_axes ~spatial:true (input_tile sh inputs c.Tensor.name)
  | Op.Zero | Op.In_place -> ()

(* One stride per axis slot; strides naming the same slot add up. *)
let slot_strides sh (tile : Stmt.tile) =
  let strides = Array.make (Stdlib.max (Array.length sh.s_axes) 1) 0 in
  List.iter
    (fun (name, s) ->
      match axis_slot sh name with
      | Some j -> strides.(j) <- strides.(j) + s
      | None -> ())
    tile.Stmt.tile_strides;
  strides

(* A compiled intrinsic: the DSL description is translated once into
   closures — axis references become slots into a per-call [int array] of
   current axis values, tensor accesses become slots into a per-call array
   of tile readers — and the loop nest over the intrinsic's axes runs
   without any environment lookups.  The description is still the only
   source of semantics, so a freshly registered instruction executes with
   zero extra code. *)
type compiled = {
  c_intrin : Intrin.t;
  c_run :
    output:Stmt.tile ->
    inputs:(string * Stmt.tile) list ->
    read:(Buffer.t -> int -> Value.t) ->
    write:(Buffer.t -> int -> Value.t -> unit) ->
    tile_base:(Stmt.tile -> int) ->
    unit;
}

let compile_uncached (intrin : Intrin.t) =
  let op = intrin.Intrin.op in
  let sh = shape_of intrin in
  let axes = sh.s_axes and n_spatial = sh.s_n_spatial in
  let n_axes = Array.length axes in
  (* The body compiles to a closure over (axis values, tile readers).
     Access indices are ignored: register operands are addressed by their
     tile, exactly as the tree-walking executor did. *)
  let rec comp (e : Expr.t) : int array -> (unit -> Value.t) array -> Value.t =
    match e with
    | Expr.Imm v -> fun _ _ -> v
    | Expr.Axis_ref a ->
      let j =
        match axis_slot sh a.Axis.name with
        | Some j -> j
        | None -> error "%s: axis %s unbound" intrin.Intrin.name a.Axis.name
      in
      fun idx _ -> Value.of_int Dtype.I32 idx.(j)
    | Expr.Access (t, _) ->
      let s = operand_slot sh t.Tensor.name in
      fun _ readers -> readers.(s) ()
    | Expr.Cast (dt, e) ->
      let c = comp e in
      fun idx readers -> Value.cast dt (c idx readers)
    | Expr.Neg e ->
      let c = comp e in
      fun idx readers -> Value.neg (c idx readers)
    | Expr.Binop (o, a, b) ->
      let ca = comp a and cb = comp b in
      let f =
        match o with
        | Expr.Add -> Value.add
        | Expr.Sub -> Value.sub
        | Expr.Mul -> Value.mul
        | Expr.Div -> Value.div
        | Expr.Mod -> Value.rem
        | Expr.Min -> Value.min
        | Expr.Max -> Value.max
      in
      fun idx readers -> f (ca idx readers) (cb idx readers)
  in
  let body_c = comp op.Op.body in
  let out_dtype = op.Op.output.Tensor.dtype in
  let zero = Value.zero out_dtype in
  let c_run ~output ~inputs ~read ~write ~tile_base =
    check_call sh ~output ~inputs;
    let idx = Array.make (Stdlib.max n_axes 1) 0 in
    let addr_of base strides () =
      let a = ref base in
      for k = 0 to n_axes - 1 do
        a := !a + (strides.(k) * idx.(k))
      done;
      !a
    in
    let readers =
      Array.map
        (fun (t : Tensor.t) ->
          let tile = input_tile sh inputs t.Tensor.name in
          let buf = tile.Stmt.tile_buf in
          let addr = addr_of (tile_base tile) (slot_strides sh tile) in
          fun () -> read buf (addr ()))
        sh.s_operands
    in
    let out_buf = output.Stmt.tile_buf in
    let out_addr = addr_of (tile_base output) (slot_strides sh output) in
    let init_f =
      match op.Op.init with
      | Op.Zero -> fun _ -> zero
      | Op.In_place -> fun addr -> read out_buf addr
      | Op.Init_tensor c ->
        let slot = operand_slot sh c.Tensor.name in
        fun _ -> readers.(slot) ()
    in
    let rec spatial_loop d =
      if d = n_spatial then begin
        let addr = out_addr () in
        let acc = ref (init_f addr) in
        let rec reduce_loop d =
          if d = n_axes then acc := Value.add !acc (body_c idx readers)
          else
            for v = 0 to axes.(d).Axis.extent - 1 do
              idx.(d) <- v;
              reduce_loop (d + 1)
            done
        in
        reduce_loop n_spatial;
        write out_buf addr !acc
      end
      else
        for v = 0 to axes.(d).Axis.extent - 1 do
          idx.(d) <- v;
          spatial_loop (d + 1)
        done
    in
    spatial_loop 0
  in
  { c_intrin = intrin; c_run }

(* Compilation is memoized per intrinsic name; a re-registered intrinsic
   (tests reset the registry) is detected by physical inequality and
   recompiled.  Guarded by a mutex so parallel oracles can share it. *)
let cache : (string, compiled) Hashtbl.t = Hashtbl.create 16
let cache_lock = Mutex.create ()

let compile (intrin : Intrin.t) =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      match Hashtbl.find_opt cache intrin.Intrin.name with
      | Some c when c.c_intrin == intrin -> c
      | _ ->
        let c = compile_uncached intrin in
        Hashtbl.replace cache intrin.Intrin.name c;
        c)

let run c ~output ~inputs ~read ~write ~tile_base =
  c.c_run ~output ~inputs ~read ~write ~tile_base

let execute intrin ~output ~inputs ~read ~write ~eval_index =
  run (compile intrin) ~output ~inputs ~read ~write
    ~tile_base:(fun t -> eval_index t.Stmt.tile_base)

(* The expansion builds [c_run]'s loop nest as TIR.  Two rules keep it
   fast once rendered: ocamlopt hoists nothing out of loops, so every
   non-constant tile base is bound once by a [Let] outside the nest; and
   the accumulator lives in a one-element scratch of the output dtype,
   stored to the output tile through [Store]'s implicit conversion — the
   same conversion [write] applies. *)
let expand_call sh ~(output : Stmt.tile) ~inputs =
  check_call sh ~output ~inputs;
  let name = sh.s_intrin.Intrin.name and op = sh.s_intrin.Intrin.op in
  let out_dtype = op.Op.output.Tensor.dtype in
  (* Value's arithmetic raises on mixed dtypes where TIR would convert, so
     every operand must carry its tensor's dtype and the accumulator's
     initial value the output's *)
  let expect what want got =
    if not (Dtype.equal want got) then
      error "%s: %s of dtype %s, %s expected" name what (Dtype.to_string got)
        (Dtype.to_string want)
  in
  let vars = Array.map (fun (a : Axis.t) -> Var.create a.Axis.name) sh.s_axes in
  let lets = ref [] in
  let address (tile : Stmt.tile) =
    let base =
      match Texpr.as_const_int tile.Stmt.tile_base with
      | Some c -> Texpr.int_imm c
      | None ->
        let v = Var.create "tile_base" in
        lets := (v, tile.Stmt.tile_base) :: !lets;
        Texpr.var v
    in
    let strides = slot_strides sh tile in
    let addr = ref base in
    Array.iteri
      (fun j v ->
        if strides.(j) <> 0 then
          addr := Texpr.add !addr (Texpr.mul (Texpr.int_imm strides.(j)) (Texpr.var v)))
      vars;
    !addr
  in
  let out_buf = output.Stmt.tile_buf in
  let out_addr = address output in
  let operands =
    Array.map
      (fun (t : Tensor.t) ->
        let tile = input_tile sh inputs t.Tensor.name in
        expect ("operand " ^ t.Tensor.name) t.Tensor.dtype tile.Stmt.tile_buf.Buffer.dtype;
        Texpr.load tile.Stmt.tile_buf (address tile))
      sh.s_operands
  in
  let read n = operands.(operand_slot sh n) in
  let axis_env (a : Axis.t) =
    match axis_slot sh a.Axis.name with
    | Some j -> Texpr.var vars.(j)
    | None -> error "%s: axis %s unbound" name a.Axis.name
  in
  let body =
    Lower.texpr_of_expr ~axis_env ~access:(fun t _ -> read t.Tensor.name) op.Op.body
  in
  let init =
    match op.Op.init with
    | Op.Zero -> Texpr.imm (Value.zero out_dtype)
    | Op.In_place -> Texpr.load out_buf out_addr
    | Op.Init_tensor c -> read c.Tensor.name
  in
  expect "accumulator init" out_dtype (Texpr.dtype_of init);
  let acc = Buffer.create ~name:(name ^ ".acc") ~dtype:out_dtype ~size:1 () in
  let cell = Texpr.int_imm 0 in
  let rec loops j stop body =
    if j = stop then body
    else Stmt.for_ vars.(j) ~extent:sh.s_axes.(j).Axis.extent (loops (j + 1) stop body)
  in
  let nest =
    loops 0 sh.s_n_spatial
      (Stmt.seq
         [ Stmt.Store (acc, cell, init);
           loops sh.s_n_spatial (Array.length vars)
             (Stmt.Store (acc, cell, Texpr.add (Texpr.load acc cell) body));
           Stmt.Store (out_buf, out_addr, Texpr.load acc cell)
         ])
  in
  List.fold_left (fun s (v, e) -> Stmt.Let (v, e, s)) (Stmt.Alloc (acc, nest)) !lets

let expand (func : Lower.func) =
  let rec go (s : Stmt.t) =
    match s with
    | Stmt.Intrin_call { intrin; output; inputs } ->
      (match Registry.find intrin with
       | None -> error "intrinsic %s is not registered" intrin
       | Some ins -> expand_call (shape_of ins) ~output ~inputs)
    | s -> Stmt.map_children go s
  in
  { func with Lower.fn_body = go func.Lower.fn_body }
