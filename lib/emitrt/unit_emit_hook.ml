type kernel =
  float array array ->
  int array array ->
  int64 array array ->
  int array ->
  (int -> (int -> unit) -> unit) ->
  unit

let slot : kernel option ref = ref None
let register k = slot := Some k

let take () =
  let k = !slot in
  slot := None;
  k

(* ---- bounds: proven accesses render unchecked, behind one window
   check per binding at kernel entry; every other access is checked *)

exception Out_of_window of int * string

let check_window k a o n =
  let len = Array.length a in
  if o < 0 || o > len - n then
    raise
      (Out_of_window
         (k, Printf.sprintf "window [%d, %d) outside its array of %d" o (o + n) len))

let out_of_window k i n =
  raise (Out_of_window (k, Printf.sprintf "index %d outside [0, %d)" i n))

(* ---- canonicalizers: the one native copy of the integer rules that
   [Value] applies to boxed values.  Emitted kernels call them by name,
   the closure engine and the unboxed ndarrays through [Ndarray.canon],
   and the tests check each against [Value].  A change here changes
   what every emitted kernel computes, so it bumps [Emit.version]. *)
let w_bool x = if x land 0xff = 0 then 0 else 1
let w_u8 x = x land 0xff
let w_i8 x = let m = x land 0xff in if m land 0x80 <> 0 then m - 0x100 else m
let w_i16 x = let m = x land 0xffff in if m land 0x8000 <> 0 then m - 0x10000 else m

let w_i32 x =
  let m = x land 0xffffffff in
  if m land 0x80000000 <> 0 then m - 0x100000000 else m

(* Bf16.round_float: nearest even from the f32 bits, except where the
   f64 -> f32 step landed on a bf16 tie, which the dropped bits break *)
let r_bf16 x =
  if Float.is_nan x then Int32.float_of_bits 0x7fc00000l
  else begin
    let b = Int32.bits_of_float x in
    let hi =
      if Int32.logand b 0xffffl <> 0x8000l then
        Int32.shift_right_logical
          (Int32.add b (Int32.add 0x7fffl (Int32.logand (Int32.shift_right_logical b 16) 1l)))
          16
      else begin
        let hi = Int32.shift_right_logical b 16 in
        let f = Int32.float_of_bits b in
        if Float.equal f x then
          if Int32.logand hi 1l = 1l then Int32.add hi 1l else hi
        else if Float.abs x > Float.abs f then Int32.add hi 1l
        else hi
      end
    in
    Int32.float_of_bits (Int32.shift_left (Int32.logand hi 0xffffl) 16)
  end

let trunc64 f =
  if Float.is_nan f then 0L
  else if f >= Int64.to_float Int64.max_int then Int64.max_int
  else if f <= Int64.to_float Int64.min_int then Int64.min_int
  else Int64.of_float f

let trunc f = Int64.to_int (trunc64 f)

let sat_gen lo hi f =
  if Float.is_nan f then 0
  else if f <= Int64.to_float lo then Int64.to_int lo
  else if f >= Int64.to_float hi then Int64.to_int hi
  else Int64.to_int (Int64.of_float f)

let sat_bool f = sat_gen 0L 1L f
let sat_u8 f = sat_gen 0L 255L f
let sat_i8 f = sat_gen (-128L) 127L f
let sat_i16 f = sat_gen (-32768L) 32767L f
let sat_i32 f = sat_gen (-2147483648L) 2147483647L f

(* ---- lane pairs *)

(* plain loops: [Array.init]'s closure call per cell costs twice the
   packing itself.  Every read lies in [[o, o + n)], which the kernel's
   [check_window] proved before the call, and every write in
   [[0, n / 2)]. *)
let pack_pairs w o n d =
  if d < 1 then invalid_arg "pack_pairs: distance below 1";
  if n mod (2 * d) <> 0 then invalid_arg "pack_pairs: window not a multiple of twice the distance";
  let p = Array.make (n / 2) 0 in
  for q = 0 to (n / (2 * d)) - 1 do
    let src = o + (2 * d * q) and dst = d * q in
    for r = 0 to d - 1 do
      Array.unsafe_set p (dst + r)
        (Array.unsafe_get w (src + r) + (Array.unsafe_get w (src + r + d) lsl 31))
    done
  done;
  p
