open Unit_codegen
open Unit_graph
open Unit_tir

(* The planner proposes, the checker proves.

   [plan] runs greedy best-fit over the liveness interference relation:
   intermediates are placed largest-first, each into the tightest gap of
   its storage class's arena that no interfering, already-placed tensor
   occupies.  [check] then re-derives liveness from the graph and
   verifies the emitted plan from scratch — every intermediate planned
   exactly once, every slot inside its arena and big enough, and no two
   interfering live ranges sharing a byte.  The checker never trusts the
   planner's intermediate state, so a planner bug (or a hand-corrupted
   plan) surfaces as structured [Diag.Mem_plan] errors instead of silent
   aliasing at run time. *)

type slot = {
  s_id : Graph.id;
  s_class : Ndarray.storage_class;
  s_off : int;  (* word offset within the class arena *)
  s_words : int;
}

type t = {
  p_float_words : int;
  p_int_words : int;
  p_int64_words : int;
  p_slots : slot list;  (* ascending node id *)
}

let class_words p = function
  | Ndarray.Float_class -> p.p_float_words
  | Ndarray.Int_class -> p.p_int_words
  | Ndarray.Int64_class -> p.p_int64_words

let class_name = function
  | Ndarray.Float_class -> "float"
  | Ndarray.Int_class -> "int"
  | Ndarray.Int64_class -> "int64"

let arena_words p = p.p_float_words + p.p_int_words + p.p_int64_words
let arena_bytes p = arena_words p * Liveness.word_bytes

(* Byte offset of a slot in the single logical arena: the three class
   regions are laid out [float | int | int64] back to back. *)
let byte_offset p s =
  let base =
    match s.s_class with
    | Ndarray.Float_class -> 0
    | Ndarray.Int_class -> p.p_float_words
    | Ndarray.Int64_class -> p.p_float_words + p.p_int_words
  in
  (base + s.s_off) * Liveness.word_bytes

(* ---------- planner ---------- *)

let plan_ranges ranges =
  let planned =
    Array.to_list ranges
    |> List.filter (fun (r : Liveness.range) ->
           r.Liveness.lv_intermediate && r.Liveness.lv_elems > 0)
    (* largest first; ties by id so the plan is deterministic *)
    |> List.sort (fun (a : Liveness.range) (b : Liveness.range) ->
           match compare b.Liveness.lv_elems a.Liveness.lv_elems with
           | 0 -> compare a.Liveness.lv_id b.Liveness.lv_id
           | c -> c)
  in
  let placed : (Ndarray.storage_class * slot list) list ref =
    ref
      [ (Ndarray.Float_class, []); (Ndarray.Int_class, []); (Ndarray.Int64_class, []) ]
  in
  let place (r : Liveness.range) =
    let cls = r.Liveness.lv_class in
    let words = r.Liveness.lv_elems in
    let peers = List.assoc cls !placed in
    (* intervals already claimed by tensors live at the same time *)
    let busy =
      List.filter
        (fun s -> Liveness.interfere ranges.(s.s_id) r)
        peers
      |> List.map (fun s -> (s.s_off, s.s_off + s.s_words))
      |> List.sort compare
    in
    (* best fit: the tightest gap between busy intervals that holds
       [words]; falls back to first free offset past the last one *)
    let best = ref None in
    let consider off cap =
      if cap >= words then
        match !best with
        | Some (_, best_cap) when best_cap <= cap -> ()
        | _ -> best := Some (off, cap)
    in
    let frontier =
      List.fold_left
        (fun frontier (lo, hi) ->
          if lo > frontier then consider frontier (lo - frontier);
          Stdlib.max frontier hi)
        0 busy
    in
    let off = match !best with Some (off, _) -> off | None -> frontier in
    let slot = { s_id = r.Liveness.lv_id; s_class = cls; s_off = off; s_words = words } in
    placed :=
      List.map
        (fun (c, ss) -> if c = cls then (c, slot :: ss) else (c, ss))
        !placed;
    slot
  in
  let slots = List.map place planned in
  let total cls =
    List.fold_left
      (fun acc s -> if s.s_class = cls then Stdlib.max acc (s.s_off + s.s_words) else acc)
      0 slots
  in
  { p_float_words = total Ndarray.Float_class;
    p_int_words = total Ndarray.Int_class;
    p_int64_words = total Ndarray.Int64_class;
    p_slots = List.sort (fun a b -> compare a.s_id b.s_id) slots
  }

let plan g = plan_ranges (Liveness.analyze g)

(* ---------- the independent overlap checker ---------- *)

let check g p =
  let ranges = Liveness.analyze g in
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let slots : (int, slot) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if Hashtbl.mem slots s.s_id then
        push
          (Diag.errorf Diag.Mem_plan "node %d is planned twice" s.s_id)
      else Hashtbl.replace slots s.s_id s)
    p.p_slots;
  (* 1. every live intermediate has a slot, and no slot names a
        non-intermediate (weights/inputs must keep private storage) *)
  Array.iter
    (fun (r : Liveness.range) ->
      let planned = Hashtbl.find_opt slots r.Liveness.lv_id in
      if r.Liveness.lv_intermediate && r.Liveness.lv_elems > 0 then begin
        match planned with
        | None ->
          push
            (Diag.errorf Diag.Mem_plan "intermediate %s (node %d) has no arena slot"
               r.Liveness.lv_name r.Liveness.lv_id)
        | Some s ->
          if s.s_class <> r.Liveness.lv_class then
            push
              (Diag.errorf Diag.Mem_plan
                 "%s (node %d): slot in the %s arena but the tensor is %s-class"
                 r.Liveness.lv_name r.Liveness.lv_id (class_name s.s_class)
                 (class_name r.Liveness.lv_class));
          if s.s_words < r.Liveness.lv_elems then
            push
              (Diag.errorf Diag.Mem_plan
                 "%s (node %d): slot holds %d words but the tensor needs %d"
                 r.Liveness.lv_name r.Liveness.lv_id s.s_words r.Liveness.lv_elems);
          if s.s_off < 0 then
            push
              (Diag.errorf Diag.Mem_plan "%s (node %d): negative offset %d"
                 r.Liveness.lv_name r.Liveness.lv_id s.s_off);
          if s.s_off + s.s_words > class_words p s.s_class then
            push
              (Diag.errorf Diag.Mem_plan
                 "%s (node %d): slot [%d, %d) escapes the %d-word %s arena"
                 r.Liveness.lv_name r.Liveness.lv_id s.s_off (s.s_off + s.s_words)
                 (class_words p s.s_class) (class_name s.s_class))
      end
      else
        match planned with
        | Some _ ->
          push
            (Diag.errorf Diag.Mem_plan
               "%s (node %d) is not an arena-eligible intermediate but has a slot"
               r.Liveness.lv_name r.Liveness.lv_id)
        | None -> ())
    ranges;
  (* 2. interfering live ranges must be byte-disjoint *)
  let slot_list = Hashtbl.fold (fun _ s acc -> s :: acc) slots [] in
  let slot_list = List.sort (fun a b -> compare a.s_id b.s_id) slot_list in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          if
            a.s_class = b.s_class
            && a.s_id < Array.length ranges
            && b.s_id < Array.length ranges
            && Liveness.interfere ranges.(a.s_id) ranges.(b.s_id)
            && a.s_off < b.s_off + b.s_words
            && b.s_off < a.s_off + a.s_words
          then
            push
              (Diag.errorf Diag.Mem_plan
                 "%s (live at nodes [%d, %d]) and %s (live at nodes [%d, %d]) share %s-arena words [%d, %d)"
                 ranges.(a.s_id).Liveness.lv_name
                 ranges.(a.s_id).Liveness.lv_def ranges.(a.s_id).Liveness.lv_last
                 ranges.(b.s_id).Liveness.lv_name
                 ranges.(b.s_id).Liveness.lv_def ranges.(b.s_id).Liveness.lv_last
                 (class_name a.s_class)
                 (Stdlib.max a.s_off b.s_off)
                 (Stdlib.min (a.s_off + a.s_words) (b.s_off + b.s_words))))
        rest;
      pairs rest
  in
  pairs slot_list;
  (* slots referencing nodes outside the graph *)
  List.iter
    (fun s ->
      if s.s_id < 0 || s.s_id >= Array.length ranges then
        push
          (Diag.errorf Diag.Mem_plan "slot references node %d outside the graph"
             s.s_id))
    p.p_slots;
  List.rev !diags

(* ---------- lowering to the executor's plan, stats ---------- *)

let exec_plan p =
  { Executor.ap_float_words = p.p_float_words;
    ap_int_words = p.p_int_words;
    ap_int64_words = p.p_int64_words;
    ap_slots =
      List.map
        (fun s ->
          { Executor.sl_id = s.s_id;
            sl_class = s.s_class;
            sl_offset = s.s_off;
            sl_words = s.s_words
          })
        p.p_slots
  }

type stats = {
  st_naive_bytes : int;
  st_peak_bytes : int;
  st_arena_bytes : int;
  st_reuse_ratio : float;
}

let stats ranges p =
  let naive = Liveness.naive_bytes ranges in
  { st_naive_bytes = naive;
    st_peak_bytes = Liveness.peak_bytes ranges;
    st_arena_bytes = arena_bytes p;
    st_reuse_ratio =
      (if naive = 0 then 1.0
       else float_of_int (arena_bytes p) /. float_of_int naive)
  }
