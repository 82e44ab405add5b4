(** Where a function's bound tensors live while a compiled kernel runs:
    one array of cells per {!Ndarray.storage_class} plus one element
    offset per tensor, the arguments of both {!Compile}'s closures and
    {!Emit}'s kernels.  {!layout} fixes the arrangement once per
    function; {!fill} loads what {!Interp.resolve} returned into it. *)

open Unit_tir

type slot = {
  sl_buf : Buffer.t;
  sl_class : Ndarray.storage_class;
  sl_cell : int;  (** index into its class's cell array *)
}
(** One tensor of [fn_tensors]; its position in [l_slots] indexes the
    offsets. *)

type layout = {
  l_slots : slot list;  (** in [fn_tensors] order *)
  l_nf : int;  (** cells of [Float_class], [Int_class], [Int64_class] *)
  l_ni : int;
  l_nl : int;
}

val layout : Lower.func -> layout
(** Cells numbered per class in [fn_tensors] order; a buffer bound
    through two tensors takes one cell.  {!Compile} numbers its own
    buffers' cells after these and raises the counts. *)

val fill :
  layout ->
  (Buffer.t * Ndarray.t) list ->
  float array array * int array array * int64 array array * int array
(** [fill l (Interp.resolve func bindings)], for the [func] [l] lays out:
    the float, int and int64 cell arrays holding each array's storage in
    its slot's cell, and the offsets.  Unfilled cells stay [[||]]; every
    array has at least one element. *)
