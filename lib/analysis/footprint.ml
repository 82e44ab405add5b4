open Unit_tir

(* Per-kernel memory footprint, bounded statically.

   Three quantities per lowered kernel:
   - [fp_alloc_bytes]: peak scratch held by nested [Alloc]s (sizes are
     static in [Buffer.size], peaks follow the block structure);
   - [fp_tile_window_bytes]: the widest single-issue tile working set of
     any [Intrin_call] — output plus input windows, each spanned by the
     tile strides times the instruction's axis extents;
   - [fp_touched]: for every non-scratch buffer, the exact byte range
     the kernel addresses, from [Linear.bounds] over each access index
     under the loop/let environment (falling back to the whole buffer
     when an index is not linear). *)

type report = {
  fp_alloc_bytes : int;
  fp_tile_window_bytes : int;
  fp_touched : (string * int) list;  (* buffer name -> addressed bytes *)
  fp_total_bytes : int;
}

let default_intrin _ = None

let of_stmt ?(intrin = default_intrin) body =
  (* hull of addressed element ranges per buffer; [None] = unanalyzable
     index seen, charge the whole buffer *)
  let touched : (string, (Buffer.t * (int * int) option)) Hashtbl.t =
    Hashtbl.create 16
  in
  let scratch : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let widest_tile = ref 0 in
  let touch buf range =
    if not (Hashtbl.mem scratch buf.Buffer.name) then
      let merged =
        match Hashtbl.find_opt touched buf.Buffer.name, range with
        | None, r -> r
        | Some (_, None), _ | Some _, None -> None
        | Some (_, Some (alo, ahi)), Some (blo, bhi) ->
          Some (Stdlib.min alo blo, Stdlib.max ahi bhi)
      in
      Hashtbl.replace touched buf.Buffer.name (buf, merged)
  in
  let bounds env e = Linear.bounds ~env e in
  let touch_loads env e =
    List.iter (fun (b, ix) -> touch b (bounds env ix)) (Texpr.loads_of e)
  in
  (* environment: loop vars get [0, extent-1]; lets get their linear
     bounds when they have any *)
  let rec walk env alloc_depth (s : Stmt.t) =
    let lookup v =
      List.find_map (fun (w, r) -> if Var.equal v w then Some r else None) env
    in
    match s with
    | Stmt.Nop -> alloc_depth
    | Stmt.Seq stmts ->
      List.fold_left (fun acc st -> Stdlib.max acc (walk env alloc_depth st)) alloc_depth stmts
    | Stmt.Store (buf, ix, v) ->
      touch buf (bounds lookup ix);
      touch_loads lookup ix;
      touch_loads lookup v;
      alloc_depth
    | Stmt.For { var; extent; body; _ } ->
      walk ((var, (0, Stdlib.max 0 (extent - 1))) :: env) alloc_depth body
    | Stmt.If { cond; then_; else_; _ } ->
      touch_loads lookup cond;
      let a = walk env alloc_depth then_ in
      let b =
        match else_ with Some e -> walk env alloc_depth e | None -> alloc_depth
      in
      Stdlib.max a b
    | Stmt.Let (v, e, body) ->
      touch_loads lookup e;
      let env' =
        match bounds lookup e with Some r -> (v, r) :: env | None -> env
      in
      walk env' alloc_depth body
    | Stmt.Alloc (b, body) ->
      Hashtbl.replace scratch b.Buffer.name ();
      walk env (alloc_depth + Buffer.bytes b) body
    | Stmt.Intrin_call { intrin = name; output; inputs } ->
      let meta = intrin name in
      let window (tile : Stmt.tile) =
        let slo, shi = Analysis.tile_span meta tile in
        let elems = shi - slo + 1 in
        let bytes = elems * Unit_dtype.Dtype.bytes tile.Stmt.tile_buf.Buffer.dtype in
        (* the buffer range this tile addresses across the whole nest:
           base interval plus the per-issue span *)
        let range =
          Option.map
            (fun (blo, bhi) -> (blo + slo, bhi + shi))
            (bounds lookup tile.Stmt.tile_base)
        in
        touch tile.Stmt.tile_buf range;
        bytes
      in
      let total =
        window output + List.fold_left (fun acc (_, tl) -> acc + window tl) 0 inputs
      in
      widest_tile := Stdlib.max !widest_tile total;
      alloc_depth
  in
  let alloc_peak = walk [] 0 body in
  let touched_list =
    Hashtbl.fold
      (fun name (buf, range) acc ->
        let elems =
          match range with
          | Some (lo, hi) ->
            let lo = Stdlib.max 0 lo and hi = Stdlib.min (buf.Buffer.size - 1) hi in
            Stdlib.max 0 (hi - lo + 1)
          | None -> buf.Buffer.size
        in
        (name, elems * Unit_dtype.Dtype.bytes buf.Buffer.dtype) :: acc)
      touched []
    |> List.sort compare
  in
  { fp_alloc_bytes = alloc_peak;
    fp_tile_window_bytes = !widest_tile;
    fp_touched = touched_list;
    fp_total_bytes =
      alloc_peak + List.fold_left (fun acc (_, b) -> acc + b) 0 touched_list
  }

let of_func ?intrin (func : Lower.func) = of_stmt ?intrin func.Lower.fn_body
