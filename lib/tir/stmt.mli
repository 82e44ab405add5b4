(** Statements of the tensor IR.

    All loops are canonical (0-based, unit step).  Loop kinds carry the
    schedule annotations through to code generation and the machine model;
    [Tensorized] marks the nest that the replacement pass (Section III-C.2)
    rewrites into an {!Intrin_call}. *)

type for_kind =
  | Serial
  | Parallel  (** distributed across CPU threads *)
  | Unrolled
  | Vectorized  (** SIMD lanes; semantics identical to [Serial] *)
  | Gpu_block of int  (** blockIdx dimension 0..2 *)
  | Gpu_thread of int  (** threadIdx dimension 0..2 *)
  | Tensorized of Unit_dsl.Schedule.tensorize_info

(** A register-tile operand of a tensorized instruction: the memory it is
    loaded from (or stored to), as a base element index plus one stride per
    {e intrinsic loop variable}.  A stride of 0 along an intrinsic axis
    means the value is broadcast along that axis — exactly the operand
    preparation interface of Section III-C.2. *)
type tile = {
  tile_buf : Buffer.t;
  tile_base : Texpr.t;  (** element index when all intrinsic axes are 0 *)
  tile_strides : (string * int) list;
      (** intrinsic axis name -> element stride *)
}

type t =
  | Nop
  | Store of Buffer.t * Texpr.t * Texpr.t  (** buffer, index, value *)
  | For of { var : Var.t; extent : int; kind : for_kind; body : t }
  | If of { cond : Texpr.t; likely : bool; then_ : t; else_ : t option }
      (** [likely] marks split-residue guards inherited from TVM *)
  | Let of Var.t * Texpr.t * t
  | Alloc of Buffer.t * t  (** scoped scratch buffer *)
  | Seq of t list
  | Intrin_call of {
      intrin : string;
      output : tile;
      inputs : (string * tile) list;  (** intrinsic tensor name -> tile *)
    }

val seq : t list -> t
(** Flattens nested [Seq]s and drops [Nop]s; a single statement stays
    bare. *)

val for_ : Var.t -> extent:int -> ?kind:for_kind -> t -> t

val map_children : (t -> t) -> t -> t
(** Rebuild one level; the workhorse of the passes. *)

val iter_stmts : (t -> unit) -> t -> unit
(** Pre-order traversal over every statement. *)

val exists : (t -> bool) -> t -> bool
(** Pre-order search with a genuine early exit: traversal stops at the
    first statement satisfying the predicate. *)

val fold_stmts : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over every statement (the accumulator-threading
    counterpart of {!iter_stmts}). *)

val substitute : (Var.t * Texpr.t) list -> t -> t
(** Substitute variables in every contained expression (including tile
    bases). *)

val buffers_of : t -> Buffer.t list
(** Every buffer read, written or allocated; deduplicated. *)

val pp : Format.formatter -> t -> unit
(** C-like indented form; the printer behind [unitc]'s IR dumps. *)

val to_string : t -> string
