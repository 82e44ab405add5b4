open Unit_dtype
open Unit_tir

(* One-pass compiler from lowered TIR to nested OCaml closures.

   The tree-walking interpreter ({!Interp}) pays a hashtable lookup per
   variable reference and boxes a [Value.t] per scalar operation.  Here the
   whole function is translated once: loop variables become slots in a
   preallocated [int array] frame, loads and stores become direct flat
   accesses into the dtype-specialized unboxed {!Ndarray} storage, and
   arithmetic specializes on the operand dtype at compile time.  The
   numeric results are bit-identical to the tree-walker: integer wraps,
   saturating casts and float truncation call {!Unit_emit_hook}'s
   canonicalizers (per dtype through {!Ndarray.canon}), the one native
   copy that emitted kernels call too, and float rounding calls
   {!Unit_dtype.Value.round_float} (see the qcheck differential property
   in the tests).

   Execution state lives in a [ctx] allocated per {!run_compiled} call, so
   one compiled function may run concurrently on several domains.

   Binding is the emitted engine's: {!Interp.resolve} checks the arrays
   (same errors as the tree-walker), {!Binding.fill} loads them into the
   function's {!Binding.layout}, and the buffers the body allocates or
   only references take the cells after the layout's.  An arena view is
   refused, since the closures address each array from 0.

   Divergences from the tree-walker, all confined to programs that the
   static checker ([Unit_analysis.Analysis]) rejects: a loop variable read after its loop (the
   slot keeps its last value instead of erroring), a buffer referenced only
   in dead code (reported as unbound at bind time rather than ignored), and
   intrinsic resolution (performed at compile time, so re-registering an
   instruction after {!compile} does not affect the compiled function). *)

let error fmt = Printf.ksprintf (fun s -> raise (Interp.Runtime_error s)) fmt

module Obs = Unit_obs.Obs

(* Static compilation counters: each records a compile-time decision
   (never a per-element runtime event), so they cost nothing on the
   compiled closures' hot path. *)
let c_bounds_hoisted = Obs.counter "codegen.bounds_hoisted"
let c_bounds_emitted = Obs.counter "codegen.bounds_emitted"
let c_wraps_elided = Obs.counter "codegen.wraps_elided"
let c_affine_flattened = Obs.counter "codegen.affine_flattened"

(* Compile-time facts about one buffer: which class's cell array it lives
   in, and whether an [Alloc] provides it. *)
type binfo = {
  b_buf : Buffer.t;
  b_kind : Ndarray.storage_class;
  b_cell : int;
  mutable b_alloc : bool;
}

type ctx = {
  frame : int array;
  fcells : float array array;
  icells : int array array;
  lcells : int64 array array;
}

(* A compiled expression, represented by the unboxed carrier its dtype
   affords: [EI] for integer dtypes that fit a native int (canonically
   wrapped values), [EF] for float dtypes (values rounded to the dtype's
   precision), [EV] boxed for [I64] and the error-reproducing edge cases. *)
type exp =
  | EI of (ctx -> int)
  | EF of (ctx -> float)
  | EV of (ctx -> Value.t)

type compiled = {
  cp_func : Lower.func;
  cp_nslots : int;
  cp_layout : Binding.layout;  (** the bound cells, then the body's own *)
  cp_required : binfo list;
  cp_body : ctx -> unit;
}

(* 0 while the buffer is neither bound nor inside its [Alloc] *)
let cell_length ctx bi =
  match bi.b_kind with
  | Float_class -> Array.length ctx.fcells.(bi.b_cell)
  | Int_class -> Array.length ctx.icells.(bi.b_cell)
  | Int64_class -> Array.length ctx.lcells.(bi.b_cell)

let mk_round dt = if Dtype.equal dt Dtype.F64 then Fun.id else Value.round_float dt

let compile (func : Lower.func) =
  let obs_tok = Obs.start "codegen.compile" in
  Fun.protect ~finally:(fun () -> Obs.stop obs_tok) @@ fun () ->
  (* the bound buffers take the layout's cells; every other buffer gets
     the next cell of its class *)
  let layout = Binding.layout func in
  let binfos : (int, binfo) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Binding.slot) ->
      Hashtbl.replace binfos s.sl_buf.Buffer.id
        { b_buf = s.sl_buf; b_kind = s.sl_class; b_cell = s.sl_cell; b_alloc = false })
    layout.l_slots;
  let nf = ref layout.l_nf and ni = ref layout.l_ni and nl = ref layout.l_nl in
  let get_binfo (b : Buffer.t) =
    match Hashtbl.find_opt binfos b.Buffer.id with
    | Some bi -> bi
    | None ->
      let k = Ndarray.class_of_dtype b.Buffer.dtype in
      let counter = match k with Float_class -> nf | Int_class -> ni | Int64_class -> nl in
      let bi = { b_buf = b; b_kind = k; b_cell = !counter; b_alloc = false } in
      incr counter;
      Hashtbl.add binfos b.Buffer.id bi;
      bi
  in
  let slots : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let nslots = ref 0 in
  let slot_of (v : Var.t) =
    match Hashtbl.find_opt slots v.Var.id with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      Hashtbl.add slots v.Var.id s;
      s
  in
  let var_slot (v : Var.t) =
    match Hashtbl.find_opt slots v.Var.id with
    | Some s -> s
    | None -> error "variable %s unbound" v.Var.name
  in
  (* ---- intervals: {!Linear.bounds} proves loads/stores in bounds at
     compile time so the explicit checks vanish from inner loops.  A
     proven interval fits its node's dtype (runtime wrapping is the
     identity, so the bounds are the value bounds) and stays within 2^30.
     [ienv] holds the proven range of each variable in scope; a narrow
     integer buffer's loads range over its dtype. *)
  let ienv : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let interval =
    let env (v : Var.t) = Hashtbl.find_opt ienv v.Var.id in
    Linear.bounds ~env ~load:(fun (b : Buffer.t) -> Ndarray.narrow_range b.Buffer.dtype)
  in
  (* ---- affine flattening: an integer expression whose every node has a
     proven interval (so wrapping is the identity throughout and native
     arithmetic cannot overflow — node magnitudes are capped at 2^30, so
     partial sums of the flattened form stay far below the native range)
     collapses to [c0 + sum_i coeff_i * frame_i].  This replaces the deep
     per-access closure tree for typical loop-nest addresses with a single
     multiply-add closure. *)
  let merge_terms ta tb =
    let add acc (s, k) =
      let rec go = function
        | [] -> [ (s, k) ]
        | (s', k') :: rest ->
          if s = s' then (s', k' + k) :: rest else (s', k') :: go rest
      in
      go acc
    in
    List.filter (fun (_, k) -> k <> 0) (List.fold_left add ta tb)
  in
  let rec affine (e : Texpr.t) : (int * (int * int) list) option =
    match interval e with
    | None -> None
    | Some _ ->
      (match e with
       | Texpr.Imm (Value.Int (_, x)) -> Some (Int64.to_int x, [])
       | Texpr.Var v ->
         (* interval presence implies the var was bound in scope with a
            range that fits its dtype, so the per-reference wrap is the
            identity *)
         (match Hashtbl.find_opt slots v.Var.id with
          | Some s -> Some (0, [ (s, 1) ])
          | None -> None)
       | Texpr.Cast (_, a) -> affine a
       | Texpr.Binop (Texpr.Add, a, b) ->
         (match affine a, affine b with
          | Some (ca, ta), Some (cb, tb) -> Some (ca + cb, merge_terms ta tb)
          | _ -> None)
       | Texpr.Binop (Texpr.Sub, a, b) ->
         (match affine a, affine b with
          | Some (ca, ta), Some (cb, tb) ->
            Some (ca - cb, merge_terms ta (List.map (fun (s, k) -> (s, -k)) tb))
          | _ -> None)
       | Texpr.Binop (Texpr.Mul, a, b) ->
         (match affine a, affine b with
          | Some (ca, []), Some (cb, tb) ->
            Some (ca * cb, List.map (fun (s, k) -> (s, ca * k)) tb)
          | Some (ca, ta), Some (cb, []) ->
            Some (ca * cb, List.map (fun (s, k) -> (s, cb * k)) ta)
          | _ -> None)
       | _ -> None)
  in
  let affine_closure (c0, terms) =
    match terms with
    | [] -> fun _ -> c0
    | [ (s1, k1) ] -> fun ctx -> c0 + (k1 * ctx.frame.(s1))
    | [ (s1, k1); (s2, k2) ] ->
      fun ctx ->
        let fr = ctx.frame in
        c0 + (k1 * fr.(s1)) + (k2 * fr.(s2))
    | [ (s1, k1); (s2, k2); (s3, k3) ] ->
      fun ctx ->
        let fr = ctx.frame in
        c0 + (k1 * fr.(s1)) + (k2 * fr.(s2)) + (k3 * fr.(s3))
    | [ (s1, k1); (s2, k2); (s3, k3); (s4, k4) ] ->
      fun ctx ->
        let fr = ctx.frame in
        c0 + (k1 * fr.(s1)) + (k2 * fr.(s2)) + (k3 * fr.(s3)) + (k4 * fr.(s4))
    | terms ->
      let ss = Array.of_list (List.map fst terms) in
      let ks = Array.of_list (List.map snd terms) in
      let n = Array.length ss in
      fun ctx ->
        let fr = ctx.frame in
        let acc = ref c0 in
        for i = 0 to n - 1 do
          acc := !acc + (ks.(i) * fr.(ss.(i)))
        done;
        !acc
  in
  (* ---- generic (boxed) buffer access, used by intrinsic callbacks *)
  let find_binfo (b : Buffer.t) =
    match Hashtbl.find_opt binfos b.Buffer.id with
    | Some bi -> bi
    | None -> error "buffer %s unbound" b.Buffer.name
  in
  let check_bounds what (b : Buffer.t) addr =
    if addr < 0 || addr >= b.Buffer.size then
      error "%s %s[%d]: out of bounds (size %d)" what b.Buffer.name addr b.Buffer.size
  in
  (* the buffer's class after checking it is live and [addr] in bounds *)
  let live what ctx (b : Buffer.t) addr =
    let bi = find_binfo b in
    if cell_length ctx bi = 0 then error "buffer %s unbound" b.Buffer.name;
    check_bounds what b addr;
    bi
  in
  let cb_read ctx (b : Buffer.t) addr =
    let bi = live "load" ctx b addr in
    let dt = b.Buffer.dtype in
    match bi.b_kind with
    | Float_class -> Value.of_float dt ctx.fcells.(bi.b_cell).(addr)
    | Int_class -> Value.of_int dt ctx.icells.(bi.b_cell).(addr)
    | Int64_class -> Value.of_int64 dt ctx.lcells.(bi.b_cell).(addr)
  in
  let cb_write ctx (b : Buffer.t) addr v =
    let bi = live "store" ctx b addr in
    let dt = b.Buffer.dtype in
    match bi.b_kind with
    | Float_class -> ctx.fcells.(bi.b_cell).(addr) <- Value.round_float dt (Value.to_float v)
    | Int_class ->
      ctx.icells.(bi.b_cell).(addr) <- (Ndarray.canon dt).wrap (Int64.to_int (Value.to_int64 v))
    | Int64_class -> ctx.lcells.(bi.b_cell).(addr) <- Value.to_int64 v
  in
  (* ---- expressions: a closure per node, so the recursion is written
     out rather than on [Texpr.map_children] *)
  let rec comp_e (e : Texpr.t) : exp =
    match e with
    | Texpr.Imm v ->
      (match v with
       | Value.Int (dt, x) when Ndarray.is_narrow dt ->
         let c = Int64.to_int x in
         EI (fun _ -> c)
       | Value.Int _ -> EV (fun _ -> v)
       | Value.Float (_, f) -> EF (fun _ -> f))
    | Texpr.Var v ->
      let s = var_slot v in
      let dt = v.Var.dtype in
      if Ndarray.is_narrow dt then
        if Hashtbl.mem ienv v.Var.id then
          (* the binding's interval fits the dtype, so the per-reference
             wrap is the identity *)
          EI (fun ctx -> ctx.frame.(s))
        else begin
          (* the frame holds the raw bound int; references wrap to the
             variable's dtype, like [Value.of_int] did per lookup *)
          let w = (Ndarray.canon dt).wrap in
          EI (fun ctx -> w (ctx.frame.(s)))
        end
      else EV (fun ctx -> Value.of_int dt ctx.frame.(s))
    | Texpr.Load (b, ix) ->
      let bi = get_binfo b in
      let addr = comp_addr ~what:"load" bi ix in
      let dt = b.Buffer.dtype in
      let cell = bi.b_cell in
      (match bi.b_kind with
       | Float_class -> EF (fun ctx -> ctx.fcells.(cell).(addr ctx))
       | Int_class -> EI (fun ctx -> ctx.icells.(cell).(addr ctx))
       | Int64_class -> EV (fun ctx -> Value.of_int64 dt ctx.lcells.(cell).(addr ctx)))
    | Texpr.Binop (op, a, b) -> comp_binop e op a b
    | Texpr.Cmp (c, a, b) -> comp_cmp c a b
    | Texpr.And (a, b) ->
      let ta = truth a in
      let tb = truth b in
      EI (fun ctx -> if ta ctx && tb ctx then 1 else 0)
    | Texpr.Or (a, b) ->
      let ta = truth a in
      let tb = truth b in
      EI (fun ctx -> if ta ctx || tb ctx then 1 else 0)
    | Texpr.Not a ->
      let t = truth a in
      EI (fun ctx -> if t ctx then 0 else 1)
    | Texpr.Cast (dt, a) -> comp_cast dt a
    | Texpr.Select (c, a, b) -> comp_select e c a b

  and comp_addr ~what bi ix =
    let ic = eval_int_c ix in
    let size = bi.b_buf.Buffer.size in
    if Linear.in_bounds ~size (interval ix) then begin
      Obs.incr c_bounds_hoisted;
      ic
    end
    else begin
      Obs.incr c_bounds_emitted;
      let name = bi.b_buf.Buffer.name in
      fun ctx ->
        let a = ic ctx in
        if a < 0 || a >= size then
          error "%s %s[%d]: out of bounds (size %d)" what name a size;
        a
    end

  and eval_int_c e =
    match affine e with
    | Some af ->
      Obs.incr c_affine_flattened;
      affine_closure af
    | None ->
      (match comp_e e with
       | EI f -> f
       | EF f -> fun ctx -> Unit_emit_hook.trunc (f ctx)
       | EV f -> fun ctx -> Int64.to_int (Value.to_int64 (f ctx)))

  and truth e =
    match comp_e e with
    | EI f -> fun ctx -> f ctx <> 0
    | EF f -> fun ctx -> Unit_emit_hook.trunc (f ctx) <> 0
    | EV f -> fun ctx -> Value.to_int64 (f ctx) <> 0L

  and to_value dt = function
    | EI f -> fun ctx -> Value.of_int dt (f ctx)
    | EF f -> fun ctx -> Value.of_float dt (f ctx)
    | EV f -> f

  and comp_binop e op a b =
    let dt = Texpr.dtype_of e in
    (* a proven interval means the result fits [dt], so the canonicalizing
       wrap is the identity and is dropped *)
    let exact = interval e <> None in
    match comp_e a, comp_e b with
    | EI fa, EI fb when Ndarray.is_narrow dt ->
      let w = (Ndarray.canon dt).wrap in
      (if exact then
         match op with
         | Texpr.Add | Texpr.Sub | Texpr.Mul -> Obs.incr c_wraps_elided
         | _ -> ());
      (match op with
       | Texpr.Add when exact ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             x + y)
       | Texpr.Add ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             w (x + y))
       | Texpr.Sub when exact ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             x - y)
       | Texpr.Sub ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             w (x - y))
       | Texpr.Mul when exact ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             x * y)
       | Texpr.Mul ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             w (x * y))
       | Texpr.Div ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             if y = 0 then 0 else w (x / y))
       | Texpr.Mod ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             if y = 0 then 0 else w (x mod y))
       | Texpr.Min ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             if x <= y then x else y)
       | Texpr.Max ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             if x >= y then x else y))
    | EF fa, EF fb when Dtype.is_float dt ->
      let r = mk_round dt in
      (match op with
       | Texpr.Add ->
         EF
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             r (x +. y))
       | Texpr.Sub ->
         EF
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             r (x -. y))
       | Texpr.Mul ->
         EF
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             r (x *. y))
       | Texpr.Div ->
         EF
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             r (x /. y))
       | Texpr.Mod ->
         EF
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             r (Float.rem x y))
       | Texpr.Min ->
         (* min/max of canonical values is canonical; skip the re-round *)
         EF
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             Float.min x y)
       | Texpr.Max ->
         EF
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             Float.max x y))
    | ea, eb ->
      let va = to_value (Texpr.dtype_of a) ea in
      let vb = to_value (Texpr.dtype_of b) eb in
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
      EV
        (fun ctx ->
          let x = va ctx in
          let y = vb ctx in
          f x y)

  and comp_cmp c a b =
    match comp_e a, comp_e b with
    | EI fa, EI fb ->
      (* integer payloads compare natively, like [Value.compare_num] *)
      (match c with
       | Texpr.Lt ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             if x < y then 1 else 0)
       | Texpr.Le ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             if x <= y then 1 else 0)
       | Texpr.Eq ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             if x = y then 1 else 0)
       | Texpr.Ne ->
         EI
           (fun ctx ->
             let x = fa ctx in
             let y = fb ctx in
             if x <> y then 1 else 0))
    | ea, eb ->
      (* any float or boxed operand goes through [Float.compare] /
         [Value.compare_num] so NaN ordering matches the tree-walker *)
      let as_float = function
        | EI f -> Some (fun ctx -> float_of_int (f ctx))
        | EF f -> Some f
        | EV _ -> None
      in
      let test =
        match as_float ea, as_float eb with
        | Some fa, Some fb ->
          fun ctx ->
            let x = fa ctx in
            let y = fb ctx in
            Float.compare x y
        | _ ->
          let va = to_value (Texpr.dtype_of a) ea in
          let vb = to_value (Texpr.dtype_of b) eb in
          fun ctx ->
            let x = va ctx in
            let y = vb ctx in
            Value.compare_num x y
      in
      (match c with
       | Texpr.Lt -> EI (fun ctx -> if test ctx < 0 then 1 else 0)
       | Texpr.Le -> EI (fun ctx -> if test ctx <= 0 then 1 else 0)
       | Texpr.Eq -> EI (fun ctx -> if test ctx = 0 then 1 else 0)
       | Texpr.Ne -> EI (fun ctx -> if test ctx <> 0 then 1 else 0))

  and comp_cast dt a =
    let src = Texpr.dtype_of a in
    match comp_e a with
    | EI f ->
      if Ndarray.is_narrow dt then
        if Dtype.equal dt src then EI f
        else if Option.bind (interval a) (Linear.fit dt) <> None then begin
          Obs.incr c_wraps_elided;
          EI f
        end
        else begin
          let w = (Ndarray.canon dt).wrap in
          EI (fun ctx -> w (f ctx))
        end
      else if Dtype.is_float dt then begin
        let r = mk_round dt in
        EF (fun ctx -> r (float_of_int (f ctx)))
      end
      else EV (fun ctx -> Value.of_int dt (f ctx))
    | EF f ->
      if Dtype.is_float dt then
        if Dtype.equal dt Dtype.F64 || Dtype.equal dt src then EF f
        else begin
          let r = mk_round dt in
          EF (fun ctx -> r (f ctx))
        end
      else if Ndarray.is_narrow dt then begin
        let sat = (Ndarray.canon dt).sat in
        EI (fun ctx -> sat (f ctx))
      end
      else EV (fun ctx -> Value.cast dt (Value.of_float src (f ctx)))
    | EV f ->
      let g ctx = Value.cast dt (f ctx) in
      if Ndarray.is_narrow dt then EI (fun ctx -> Int64.to_int (Value.to_int64 (g ctx)))
      else if Dtype.is_float dt then EF (fun ctx -> Value.to_float (g ctx))
      else EV g

  and comp_select node c a b =
    let t = truth c in
    let dt = Texpr.dtype_of node in
    let da = Texpr.dtype_of a in
    let db = Texpr.dtype_of b in
    match comp_e a, comp_e b with
    | EI fa, EI fb when Ndarray.is_narrow dt && Dtype.equal da db ->
      EI (fun ctx -> if t ctx then fa ctx else fb ctx)
    | EF fa, EF fb when Dtype.equal da db ->
      EF (fun ctx -> if t ctx then fa ctx else fb ctx)
    | ea, eb ->
      let va = to_value da ea in
      let vb = to_value db eb in
      EV (fun ctx -> if t ctx then va ctx else vb ctx)
  in
  (* ---- statements *)
  let rec comp_s (s : Stmt.t) : ctx -> unit =
    match s with
    | Stmt.Nop -> fun _ -> ()
    | Stmt.Seq stmts ->
      let cs = Array.of_list (List.map comp_s stmts) in
      let n = Array.length cs in
      fun ctx ->
        for i = 0 to n - 1 do
          cs.(i) ctx
        done
    | Stmt.Store (b, ix, v) ->
      let bi = get_binfo b in
      let vc = comp_e v in
      let addr = comp_addr ~what:"store" bi ix in
      let dt = b.Buffer.dtype in
      let dv = Texpr.dtype_of v in
      let cell = bi.b_cell in
      (* the tree-walker evaluates the stored value before the index
         (OCaml right-to-left application); keep that order so error
         behaviour is identical *)
      (match bi.b_kind with
       | Float_class ->
         let payload =
           match vc with
           | EF f ->
             if Dtype.equal dt dv || Dtype.equal dt Dtype.F64 then f
             else begin
               let r = mk_round dt in
               fun ctx -> r (f ctx)
             end
           | EI f ->
             let r = mk_round dt in
             fun ctx -> r (float_of_int (f ctx))
           | EV f ->
             let r = mk_round dt in
             fun ctx -> r (Value.to_float (f ctx))
         in
         fun ctx ->
           let x = payload ctx in
           let a = addr ctx in
           ctx.fcells.(cell).(a) <- x
       | Int_class ->
         let payload =
           match vc with
           | EI f ->
             if Dtype.equal dt dv then f
             else begin
               let w = (Ndarray.canon dt).wrap in
               fun ctx -> w (f ctx)
             end
           | EF f ->
             let w = (Ndarray.canon dt).wrap in
             fun ctx -> w (Unit_emit_hook.trunc (f ctx))
           | EV f ->
             let w = (Ndarray.canon dt).wrap in
             fun ctx -> w (Int64.to_int (Value.to_int64 (f ctx)))
         in
         fun ctx ->
           let x = payload ctx in
           let a = addr ctx in
           ctx.icells.(cell).(a) <- x
       | Int64_class ->
         let payload =
           match vc with
           | EI f -> fun ctx -> Int64.of_int (f ctx)
           | EF f -> fun ctx -> Unit_emit_hook.trunc64 (f ctx)
           | EV f -> fun ctx -> Value.to_int64 (f ctx)
         in
         fun ctx ->
           let x = payload ctx in
           let a = addr ctx in
           ctx.lcells.(cell).(a) <- x)
    | Stmt.For { var; extent; body; _ } ->
      (* every loop kind executes serially in the oracle *)
      let s = slot_of var in
      let bc = with_range var (Some (0, extent - 1)) body in
      fun ctx ->
        let fr = ctx.frame in
        for i = 0 to extent - 1 do
          fr.(s) <- i;
          bc ctx
        done
    | Stmt.Let (v, e, body) ->
      let ec = eval_int_c e in
      let s = slot_of v in
      let bc = with_range v (interval e) body in
      fun ctx ->
        ctx.frame.(s) <- ec ctx;
        bc ctx
    | Stmt.If { cond; then_; else_; _ } ->
      let t = truth cond in
      let tc = comp_s then_ in
      (match else_ with
       | None -> fun ctx -> if t ctx then tc ctx
       | Some e ->
         let ec = comp_s e in
         fun ctx -> if t ctx then tc ctx else ec ctx)
    | Stmt.Alloc (b, body) ->
      let bi = get_binfo b in
      bi.b_alloc <- true;
      let bc = comp_s body in
      let size = b.Buffer.size in
      let cell = bi.b_cell in
      (match bi.b_kind with
       | Float_class ->
         fun ctx ->
           ctx.fcells.(cell) <- Array.make size 0.0;
           bc ctx
       | Int_class ->
         fun ctx ->
           ctx.icells.(cell) <- Array.make size 0;
           bc ctx
       | Int64_class ->
         fun ctx ->
           ctx.lcells.(cell) <- Array.make size 0L;
           bc ctx)
    | Stmt.Intrin_call { intrin; output; inputs } ->
      let all_tiles = output :: List.map snd inputs in
      List.iter (fun (t : Stmt.tile) -> ignore (get_binfo t.Stmt.tile_buf)) all_tiles;
      let bases =
        List.map (fun (t : Stmt.tile) -> (t, eval_int_c t.Stmt.tile_base)) all_tiles
      in
      (match Unit_isa.Registry.find intrin with
       | None -> fun _ -> error "intrinsic %s is not registered" intrin
       | Some ins ->
         let cins = Unit_isa.Semantics.compile ins in
         fun ctx ->
           let tile_base t =
             let rec go = function
               | [] -> error "intrinsic %s: unknown tile" intrin
               | (tl, f) :: rest -> if tl == t then f ctx else go rest
             in
             go bases
           in
           Unit_isa.Semantics.run cins ~output ~inputs ~read:(cb_read ctx)
             ~write:(cb_write ctx) ~tile_base)
  (* compile [body] with [v] bound to the range [iv] when it fits [v]'s
     dtype, restoring the enclosing binding afterwards *)
  and with_range (v : Var.t) iv body =
    let id = v.Var.id in
    let saved = Hashtbl.find_opt ienv id in
    let set = function
      | Some iv -> Hashtbl.replace ienv id iv
      | None -> Hashtbl.remove ienv id
    in
    set (Option.bind iv (Linear.fit v.Var.dtype));
    let c = comp_s body in
    set saved;
    c
  in
  let body_c = comp_s func.Lower.fn_body in
  let bound (bi : binfo) =
    List.exists (fun (s : Binding.slot) -> Buffer.equal s.sl_buf bi.b_buf) layout.l_slots
  in
  let required =
    Hashtbl.fold
      (fun _ bi acc -> if bi.b_alloc || bound bi then acc else bi :: acc)
      binfos []
  in
  {
    cp_func = func;
    cp_nslots = !nslots;
    cp_layout = { layout with l_nf = !nf; l_ni = !ni; l_nl = !nl };
    cp_required = required;
    cp_body = body_c;
  }

let run_compiled c ~bindings =
  let obs_tok = Obs.start "codegen.run" in
  Fun.protect ~finally:(fun () -> Obs.stop obs_tok) @@ fun () ->
  let resolved = Interp.resolve c.cp_func bindings in
  (* the compiled closures address the raw backing array from 0 and would
     silently read past a view's window *)
  List.iter
    (fun ((b : Buffer.t), arr) ->
      if Ndarray.is_view arr then
        error "buffer %s: arena views cannot be bound to compiled kernels" b.Buffer.name)
    resolved;
  let fcells, icells, lcells, _ = Binding.fill c.cp_layout resolved in
  let ctx = { frame = Array.make (Stdlib.max c.cp_nslots 1) 0; fcells; icells; lcells } in
  List.iter
    (fun bi -> if cell_length ctx bi = 0 then error "buffer %s unbound" bi.b_buf.Buffer.name)
    c.cp_required;
  c.cp_body ctx

let run func ~bindings = run_compiled (compile func) ~bindings
let run_op op ~bindings = run (Lower.scalar_reference op) ~bindings
