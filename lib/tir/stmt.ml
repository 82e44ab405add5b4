type for_kind =
  | Serial
  | Parallel
  | Unrolled
  | Vectorized
  | Gpu_block of int
  | Gpu_thread of int
  | Tensorized of Unit_dsl.Schedule.tensorize_info

type tile = {
  tile_buf : Buffer.t;
  tile_base : Texpr.t;
  tile_strides : (string * int) list;
}

type t =
  | Nop
  | Store of Buffer.t * Texpr.t * Texpr.t
  | For of { var : Var.t; extent : int; kind : for_kind; body : t }
  | If of { cond : Texpr.t; likely : bool; then_ : t; else_ : t option }
  | Let of Var.t * Texpr.t * t
  | Alloc of Buffer.t * t
  | Seq of t list
  | Intrin_call of {
      intrin : string;
      output : tile;
      inputs : (string * tile) list;
    }

let seq stmts =
  let flattened =
    List.concat_map (function Seq inner -> inner | Nop -> [] | s -> [ s ]) stmts
  in
  match flattened with [] -> Nop | [ single ] -> single | many -> Seq many

let for_ var ~extent ?(kind = Serial) body = For { var; extent; kind; body }

let map_children f = function
  | (Nop | Store _ | Intrin_call _) as leaf -> leaf
  | For r -> For { r with body = f r.body }
  | If r -> If { r with then_ = f r.then_; else_ = Option.map f r.else_ }
  | Let (v, e, body) -> Let (v, e, f body)
  | Alloc (b, body) -> Alloc (b, f body)
  | Seq stmts -> Seq (List.map f stmts)

let rec iter_stmts f t =
  f t;
  match t with
  | Nop | Store _ | Intrin_call _ -> ()
  | For { body; _ } -> iter_stmts f body
  | If { then_; else_; _ } ->
    iter_stmts f then_;
    Option.iter (iter_stmts f) else_
  | Let (_, _, body) | Alloc (_, body) -> iter_stmts f body
  | Seq stmts -> List.iter (iter_stmts f) stmts

let rec exists pred t =
  pred t
  ||
  match t with
  | Nop | Store _ | Intrin_call _ -> false
  | For { body; _ } -> exists pred body
  | If { then_; else_; _ } ->
    exists pred then_
    || (match else_ with Some e -> exists pred e | None -> false)
  | Let (_, _, body) | Alloc (_, body) -> exists pred body
  | Seq stmts -> List.exists (exists pred) stmts

let rec fold_stmts f acc t =
  let acc = f acc t in
  match t with
  | Nop | Store _ | Intrin_call _ -> acc
  | For { body; _ } -> fold_stmts f acc body
  | If { then_; else_; _ } ->
    let acc = fold_stmts f acc then_ in
    (match else_ with Some e -> fold_stmts f acc e | None -> acc)
  | Let (_, _, body) | Alloc (_, body) -> fold_stmts f acc body
  | Seq stmts -> List.fold_left (fold_stmts f) acc stmts

let substitute_tile bindings tile =
  { tile with tile_base = Texpr.substitute bindings tile.tile_base }

let rec substitute bindings t =
  let expr e = Texpr.substitute bindings e in
  match t with
  | Nop -> Nop
  | Store (b, ix, v) -> Store (b, expr ix, expr v)
  | For r ->
    let bindings = List.filter (fun (v, _) -> not (Var.equal v r.var)) bindings in
    For { r with body = substitute bindings r.body }
  | If r ->
    If
      { r with
        cond = expr r.cond;
        then_ = substitute bindings r.then_;
        else_ = Option.map (substitute bindings) r.else_
      }
  | Let (v, e, body) ->
    let inner = List.filter (fun (w, _) -> not (Var.equal v w)) bindings in
    Let (v, expr e, substitute inner body)
  | Alloc (b, body) -> Alloc (b, substitute bindings body)
  | Seq stmts -> Seq (List.map (substitute bindings) stmts)
  | Intrin_call r ->
    Intrin_call
      { r with
        output = substitute_tile bindings r.output;
        inputs = List.map (fun (n, tl) -> (n, substitute_tile bindings tl)) r.inputs
      }

let buffers_of t =
  let acc = ref [] in
  (* membership is O(1) via name-keyed buckets; names are not unique
     (ids are), so each bucket still dedups with [Buffer.equal] *)
  let seen : (string, Buffer.t list) Hashtbl.t = Hashtbl.create 32 in
  let remember b =
    let bucket =
      match Hashtbl.find_opt seen b.Buffer.name with Some bs -> bs | None -> []
    in
    if not (List.exists (Buffer.equal b) bucket) then begin
      Hashtbl.replace seen b.Buffer.name (b :: bucket);
      acc := b :: !acc
    end
  in
  let remember_expr e = List.iter (fun (b, _) -> remember b) (Texpr.loads_of e) in
  iter_stmts
    (fun s ->
      match s with
      | Store (b, ix, v) ->
        remember b;
        remember_expr ix;
        remember_expr v
      | Alloc (b, _) -> remember b
      | Let (_, e, _) -> remember_expr e
      | If { cond; _ } -> remember_expr cond
      | Intrin_call { output; inputs; _ } ->
        remember output.tile_buf;
        remember_expr output.tile_base;
        List.iter
          (fun (_, tl) ->
            remember tl.tile_buf;
            remember_expr tl.tile_base)
          inputs
      | Nop | For _ | Seq _ -> ())
    t;
  List.rev !acc

let kind_to_string = function
  | Serial -> ""
  | Parallel -> " /*parallel*/"
  | Unrolled -> " /*unroll*/"
  | Vectorized -> " /*vectorize*/"
  | Gpu_block d -> Printf.sprintf " /*blockIdx.%c*/" "xyz".[d]
  | Gpu_thread d -> Printf.sprintf " /*threadIdx.%c*/" "xyz".[d]
  | Tensorized info ->
    Printf.sprintf " /*tensorize %s*/" info.Unit_dsl.Schedule.intrin_name

let pp_tile fmt tile =
  Format.fprintf fmt "%s@[%a" tile.tile_buf.Buffer.name Texpr.pp tile.tile_base;
  List.iter (fun (ax, st) -> Format.fprintf fmt " +%s*%d" ax st) tile.tile_strides;
  Format.fprintf fmt "@]"

let rec pp fmt = function
  | Nop -> Format.pp_print_string fmt "nop;"
  | Store (b, ix, v) ->
    Format.fprintf fmt "@[<h>%s[%a] = %a;@]" b.Buffer.name Texpr.pp ix Texpr.pp v
  | For { var; extent; kind; body } ->
    Format.fprintf fmt "@[<v 2>for (%a = 0; %a < %d; ++%a)%s {@,%a@]@,}" Var.pp var
      Var.pp var extent Var.pp var (kind_to_string kind) pp body
  | If { cond; likely; then_; else_ } ->
    Format.fprintf fmt "@[<v 2>if (%s%a%s) {@,%a@]@,}"
      (if likely then "likely(" else "")
      Texpr.pp cond
      (if likely then ")" else "")
      pp then_;
    (match else_ with
     | Some e -> Format.fprintf fmt "@[<v 2> else {@,%a@]@,}" pp e
     | None -> ())
  | Let (v, e, body) ->
    Format.fprintf fmt "@[<v>let %a = %a;@,%a@]" Var.pp v Texpr.pp e pp body
  | Alloc (b, body) -> Format.fprintf fmt "@[<v>alloc %a;@,%a@]" Buffer.pp b pp body
  | Seq stmts ->
    Format.fprintf fmt "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp)
      stmts
  | Intrin_call { intrin; output; inputs } ->
    Format.fprintf fmt "@[<h>%a <- %s(%a);@]" pp_tile output intrin
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
         (fun f (name, tl) -> Format.fprintf f "%s=%a" name pp_tile tl))
      inputs

let to_string t = Format.asprintf "%a" pp t
