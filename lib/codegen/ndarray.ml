open Unit_dtype

(* Storage is specialized per dtype so the interpreters read and write
   unboxed payloads: floats keep their dtype's rounding applied at store
   time, narrow integers live canonically wrapped in native ints, and I64
   keeps full-width int64 semantics. *)
type storage =
  | Float_data of float array
  | Int_data of int array
  | Int64_data of int64 array

(* Which backing array a dtype lands in.  The arena planner partitions
   tensors by this, so it must stay in sync with [storage_zeros]. *)
type storage_class =
  | Float_class
  | Int_class
  | Int64_class

type t = {
  dtype : Dtype.t;
  shape : int array;
  strides : int array;
  offset : int;  (* element offset into [storage]; 0 for owning arrays *)
  storage : storage;
}

let num_elements_of_shape shape = Array.fold_left ( * ) 1 shape

let strides_of_shape shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let class_of_dtype dtype =
  if Dtype.is_float dtype then Float_class
  else if Dtype.equal dtype Dtype.I64 then Int64_class
  else Int_class

let is_narrow dtype = class_of_dtype dtype = Int_class

let narrow_range dtype =
  if is_narrow dtype then
    Some
      (Int64.to_int (Dtype.min_int_value dtype), Int64.to_int (Dtype.max_int_value dtype))
  else None

type canon = {
  wrap : int -> int;
  wrap_name : string;
  sat : float -> int;
  sat_name : string;
}

(* built once: [canon] sits on the boxed store paths *)
let canon =
  let open Unit_emit_hook in
  let c wrap wrap_name sat sat_name = { wrap; wrap_name; sat; sat_name } in
  let bool = c w_bool "w_bool" sat_bool "sat_bool" in
  let u8 = c w_u8 "w_u8" sat_u8 "sat_u8" in
  let i8 = c w_i8 "w_i8" sat_i8 "sat_i8" in
  let i16 = c w_i16 "w_i16" sat_i16 "sat_i16" in
  let i32 = c w_i32 "w_i32" sat_i32 "sat_i32" in
  fun dtype ->
    match dtype with
    | Dtype.Bool -> bool
    | Dtype.U8 -> u8
    | Dtype.I8 -> i8
    | Dtype.I16 -> i16
    | Dtype.I32 -> i32
    | Dtype.(I64 | F16 | Bf16 | F32 | F64) ->
      invalid_arg ("Ndarray.canon: " ^ Dtype.to_string dtype ^ " is not narrow")

let class_of_storage = function
  | Float_data _ -> Float_class
  | Int_data _ -> Int_class
  | Int64_data _ -> Int64_class

let storage_zeros dtype n =
  match class_of_dtype dtype with
  | Float_class -> Float_data (Array.make n 0.0)
  | Int64_class -> Int64_data (Array.make n 0L)
  | Int_class -> Int_data (Array.make n 0)

let storage_length = function
  | Float_data a -> Array.length a
  | Int_data a -> Array.length a
  | Int64_data a -> Array.length a

let make_of_shape dtype shape =
  { dtype; shape; strides = strides_of_shape shape; offset = 0;
    storage = storage_zeros dtype (num_elements_of_shape shape) }

let zeros ~dtype ~shape = make_of_shape dtype (Array.of_list shape)

let num_elements t = num_elements_of_shape t.shape

let is_view t = t.offset <> 0 || num_elements t <> storage_length t.storage

let view base ~offset ~dtype ~shape =
  let shape = Array.of_list shape in
  let n = num_elements_of_shape shape in
  if class_of_dtype dtype <> class_of_storage base.storage then
    invalid_arg
      (Printf.sprintf "Ndarray.view: dtype %s does not match the backing storage class"
         (Dtype.to_string dtype));
  if offset < 0 || offset + n > storage_length base.storage then
    invalid_arg
      (Printf.sprintf
         "Ndarray.view: window [%d, %d) escapes the backing array (%d elements)"
         offset (offset + n) (storage_length base.storage));
  { dtype; shape; strides = strides_of_shape shape; offset;
    storage = base.storage }

(* ---------- the Value.t boundary ---------- *)

let get_flat t i =
  let i = i + t.offset in
  match t.storage with
  | Float_data a -> Value.of_float t.dtype a.(i)
  | Int_data a -> Value.of_int t.dtype a.(i)
  | Int64_data a -> Value.of_int64 t.dtype a.(i)

let set_flat t i v =
  let i = i + t.offset in
  match t.storage with
  | Float_data a -> a.(i) <- Value.round_float t.dtype (Value.to_float v)
  | Int_data a -> a.(i) <- (canon t.dtype).wrap (Int64.to_int (Value.to_int64 v))
  | Int64_data a -> a.(i) <- Value.to_int64 v

(* ---------- raw (unboxed) accessors ---------- *)

let get_float_flat t i =
  let i = i + t.offset in
  match t.storage with
  | Float_data a -> a.(i)
  | Int_data a -> float_of_int a.(i)
  | Int64_data a -> Int64.to_float a.(i)

let get_int_flat t i =
  let i = i + t.offset in
  match t.storage with
  | Int_data a -> a.(i)
  | Int64_data a -> Int64.to_int a.(i)
  | Float_data a -> Unit_emit_hook.trunc a.(i)

(* ---------- multi-index access ---------- *)

let flat_index t idx =
  if Array.length idx <> Array.length t.shape then
    invalid_arg "Ndarray: index rank mismatch";
  Array.iteri
    (fun d i ->
      if i < 0 || i >= t.shape.(d) then
        invalid_arg
          (Printf.sprintf "Ndarray: index %d out of bounds for dim %d (size %d)" i d
             t.shape.(d)))
    idx;
  let flat = ref 0 in
  Array.iteri (fun d i -> flat := !flat + (i * t.strides.(d))) idx;
  !flat

let get t idx = get_flat t (flat_index t idx)
let set t idx v = set_flat t (flat_index t idx) v

(* ---------- construction ---------- *)

(* Iterate multi-indices row-major, reusing one index buffer.  [f] must
   not retain the array it is handed. *)
let iter_multi shape f =
  let n = num_elements_of_shape shape in
  let rank = Array.length shape in
  let idx = Array.make rank 0 in
  for flat = 0 to n - 1 do
    f flat idx;
    (* increment with carry, rightmost fastest *)
    let d = ref (rank - 1) in
    let carrying = ref true in
    while !carrying && !d >= 0 do
      idx.(!d) <- idx.(!d) + 1;
      if idx.(!d) = shape.(!d) then begin
        idx.(!d) <- 0;
        decr d
      end
      else carrying := false
    done
  done

let fill t f = iter_multi t.shape (fun flat idx -> set_flat t flat (f idx))

let init ~dtype ~shape f =
  let t = make_of_shape dtype (Array.of_list shape) in
  fill t f;
  t

(* Requantization-style conversion of a real number into [dtype]: floats
   round to the dtype's precision, integers round to nearest and saturate
   at the dtype's bounds. *)
let fill_float t f =
  let dtype = t.dtype in
  let off = t.offset in
  match t.storage with
  | Float_data a ->
    let round = if Dtype.equal dtype Dtype.F64 then Fun.id else Value.round_float dtype in
    iter_multi t.shape (fun flat idx -> a.(off + flat) <- round (f idx))
  | Int_data a ->
    let lo = Dtype.min_int_value dtype and hi = Dtype.max_int_value dtype in
    iter_multi t.shape (fun flat idx ->
        let x = Int64.of_float (Float.round (f idx)) in
        let x = if Int64.compare x lo < 0 then lo else if Int64.compare x hi > 0 then hi else x in
        a.(off + flat) <- Int64.to_int x)
  | Int64_data a ->
    iter_multi t.shape (fun flat idx -> a.(off + flat) <- Int64.of_float (Float.round (f idx)))

let init_float ~dtype ~shape f =
  let t = make_of_shape dtype (Array.of_list shape) in
  fill_float t f;
  t

let of_tensor_zeros (tensor : Unit_dsl.Tensor.t) =
  zeros ~dtype:tensor.dtype ~shape:(Array.to_list tensor.shape)

(* A small xorshift keeps fills deterministic and platform independent.
   The stream is keyed on what the tensor is (name, shape, dtype), never
   on its process-global id, so equal requests fill equal inputs in any
   process and after any cache eviction. *)
let random_for_tensor ~seed (tensor : Unit_dsl.Tensor.t) =
  let key =
    Printf.sprintf "%s|%s|%s" tensor.Unit_dsl.Tensor.name
      (String.concat "x" (Array.to_list (Array.map string_of_int tensor.Unit_dsl.Tensor.shape)))
      (Dtype.to_string tensor.Unit_dsl.Tensor.dtype)
  in
  let h = Int64.to_int (String.get_int64_le (Digest.string key) 0) in
  let state = ref ((seed lxor 0x9e3779b9 lxor h) land max_int lor 1) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state
  in
  let dtype = tensor.Unit_dsl.Tensor.dtype in
  let value _ =
    if Dtype.is_float dtype then Value.of_float dtype ((float_of_int (next () mod 2001) /. 1000.0) -. 1.0)
    else if Dtype.is_signed dtype then Value.of_int dtype ((next () mod 9) - 4)
    else Value.of_int dtype (next () mod 9)
  in
  init ~dtype ~shape:(Array.to_list tensor.Unit_dsl.Tensor.shape) value

(* ---------- comparison / traversal ---------- *)

let float_eq x y = x = y || (Float.is_nan x && Float.is_nan y)

let equal a b =
  Dtype.equal a.dtype b.dtype && a.shape = b.shape
  &&
  let n = num_elements a in
  match a.storage, b.storage with
  | Float_data x, Float_data y ->
    let ok = ref true in
    for i = 0 to n - 1 do
      if not (float_eq x.(a.offset + i) y.(b.offset + i)) then ok := false
    done;
    !ok
  | Int_data x, Int_data y ->
    let ok = ref true in
    for i = 0 to n - 1 do
      if x.(a.offset + i) <> y.(b.offset + i) then ok := false
    done;
    !ok
  | Int64_data x, Int64_data y ->
    let ok = ref true in
    for i = 0 to n - 1 do
      if not (Int64.equal x.(a.offset + i) y.(b.offset + i)) then ok := false
    done;
    !ok
  | _ -> false

let approx_equal ~tol a b =
  Dtype.equal a.dtype b.dtype && a.shape = b.shape
  &&
  let n = num_elements a in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let fx = get_float_flat a !i and fy = get_float_flat b !i in
    if not (Float.abs (fx -. fy) <= tol *. Float.max 1.0 (Float.abs fy)) then ok := false;
    incr i
  done;
  !ok

let fold f acc t =
  let acc = ref acc in
  for i = 0 to num_elements t - 1 do
    acc := f !acc (get_flat t i)
  done;
  !acc

let pp fmt t =
  Format.fprintf fmt "ndarray %s[%s]:" (Dtype.to_string t.dtype)
    (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)));
  let total = num_elements t in
  let n = Stdlib.min 16 total in
  for i = 0 to n - 1 do
    Format.fprintf fmt " %a" Value.pp (get_flat t i)
  done;
  if total > n then Format.pp_print_string fmt " ..."

(* Canonical content digest: every element in flat order.  Integer
   storage prints exactly; float storage prints the IEEE bits so
   "equal digests" means bit-identical. *)
let digest t =
  let buf = Buffer.create 4096 in
  let n = num_elements t in
  for i = 0 to n - 1 do
    (match get_flat t i with
     | Value.Int (_, v) -> Buffer.add_string buf (Int64.to_string v)
     | Value.Float (_, v) ->
       Buffer.add_string buf (Printf.sprintf "%Lx" (Int64.bits_of_float v)));
    Buffer.add_char buf ','
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))
