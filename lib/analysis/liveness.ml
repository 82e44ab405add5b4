open Unit_codegen
open Unit_graph

(* Per-tensor live range against the executor's sequential walk.

   The executor evaluates one node at a time in node-id order, so node ids
   are the program points: a tensor is defined at its producer's id and
   must stay materialized through the id of its last consumer, inclusive,
   because that consumer reads it while writing its own output.  Two
   tensors whose inclusive [def, last] ranges intersect can be in memory
   at the same time and therefore interfere. *)

type range = {
  lv_id : Graph.id;
  lv_name : string;
  lv_def : int;  (* producer's node id *)
  lv_last : int;  (* id of the last node that reads the tensor (inclusive) *)
  lv_elems : int;  (* element count, from the declared shape *)
  lv_class : Ndarray.storage_class;
  lv_bytes : int;  (* host bytes: one backing-array word per element *)
  lv_intermediate : bool;  (* neither Input nor Weight *)
}

(* Every tensor element occupies one word of its class's backing array
   ([float array] / [int array] / [int64 array]), independent of the
   dtype's wire width — host bytes, the quantity the executor actually
   allocates. *)
let word_bytes = 8

let interfere a b = a.lv_def <= b.lv_last && b.lv_def <= a.lv_last

let analyze g =
  let last = Array.init (Graph.arity g) Fun.id in
  List.iter
    (fun (n : Graph.node) ->
      List.iter (fun i -> last.(i) <- Stdlib.max last.(i) n.Graph.id) n.Graph.inputs)
    (Graph.nodes g);
  (* the output escapes to the caller: pin it past the last node so no
     reuse can clobber it before [run] returns *)
  last.(Graph.output g) <- Graph.arity g;
  let ranges =
    List.map
      (fun (n : Graph.node) ->
        let id = n.Graph.id in
        let elems = List.fold_left ( * ) 1 (Graph.shape_of g id) in
        let intermediate =
          match n.Graph.kind with
          | Graph.Input _ | Graph.Weight _ -> false
          | _ -> true
        in
        { lv_id = id;
          lv_name = n.Graph.name;
          lv_def = id;
          lv_last = last.(id);
          lv_elems = elems;
          lv_class = Ndarray.class_of_dtype (Graph.dtype_of g id);
          lv_bytes = elems * word_bytes;
          lv_intermediate = intermediate
        })
      (Graph.nodes g)
  in
  Array.of_list ranges

let peak_bytes ranges =
  let maxl =
    Array.fold_left (fun acc r -> Stdlib.max acc r.lv_last) 0 ranges
  in
  let peak = ref 0 in
  for l = 0 to maxl do
    let live =
      Array.fold_left
        (fun acc r ->
          if r.lv_intermediate && r.lv_def <= l && l <= r.lv_last then
            acc + r.lv_bytes
          else acc)
        0 ranges
    in
    peak := Stdlib.max !peak live
  done;
  !peak

let naive_bytes ranges =
  Array.fold_left
    (fun acc r -> if r.lv_intermediate then acc + r.lv_bytes else acc)
    0 ranges
