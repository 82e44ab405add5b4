(** Whole-graph tensor liveness against the executor's sequential walk.

    The executor evaluates nodes one at a time in node-id order, so node
    ids are the program points.  A tensor is defined at its producer's
    id and stays live through the id of its last consumer, inclusive on
    both ends, because that consumer reads it while writing its own
    output.  Two tensors whose ranges intersect may coexist in memory and
    therefore {!interfere}; the arena planner must keep them
    byte-disjoint.  The graph's output is pinned one id past the last
    node ([Graph.arity g]): it escapes to the caller. *)

open Unit_codegen
open Unit_graph

type range = {
  lv_id : Graph.id;
  lv_name : string;
  lv_def : int;  (** producer's node id *)
  lv_last : int;  (** id of the last node that reads the tensor (inclusive) *)
  lv_elems : int;  (** element count, from the declared shape *)
  lv_class : Ndarray.storage_class;
  lv_bytes : int;
      (** host bytes: [8 * lv_elems] — every element occupies one word of
          its class's backing array regardless of dtype wire width *)
  lv_intermediate : bool;  (** neither [Input] nor [Weight] *)
}

val word_bytes : int
(** Bytes per backing-array element (8 on every supported host). *)

val analyze : Graph.t -> range array
(** Indexed by node id ([Graph.arity g] entries). *)

val interfere : range -> range -> bool
(** Inclusive overlap of the two live ranges. *)

val peak_bytes : range array -> int
(** Max over node ids of the simultaneously live intermediate
    bytes — the floor any sound single-arena plan can reach. *)

val naive_bytes : range array -> int
(** Sum of all intermediate tensor bytes: the executor's historical
    peak, since per-op buffers are retained until the run completes. *)
