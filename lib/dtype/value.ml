type t =
  | Int of Dtype.t * int64
  | Float of Dtype.t * float

(* Wrap [x] into the two's-complement (or unsigned) range of [dt]. *)
let wrap dt x =
  let b = Dtype.bits dt in
  if b >= 64 then x
  else begin
    let masked = Int64.logand x (Int64.sub (Int64.shift_left 1L b) 1L) in
    if Dtype.is_signed dt then begin
      let sign_bit = Int64.shift_left 1L (b - 1) in
      if Int64.logand masked sign_bit <> 0L then
        Int64.sub masked (Int64.shift_left 1L b)
      else masked
    end
    else if Dtype.equal dt Dtype.Bool then (if masked = 0L then 0L else 1L)
    else masked
  end

let round_to_precision dt x =
  match dt with
  | Dtype.F16 -> F16.round_float x
  | Dtype.Bf16 -> Bf16.round_float x
  | Dtype.F32 -> Int32.float_of_bits (Int32.bits_of_float x)
  | Dtype.F64 -> x
  | _ -> invalid_arg "Value.round_to_precision: integer dtype"

let of_int64 dt x =
  if Dtype.is_float dt then invalid_arg "Value.of_int64: float dtype"
  else Int (dt, wrap dt x)

let of_int dt x = of_int64 dt (Int64.of_int x)

let of_float dt x =
  if Dtype.is_integer dt then invalid_arg "Value.of_float: integer dtype"
  else Float (dt, round_to_precision dt x)

let zero dt = if Dtype.is_float dt then of_float dt 0.0 else of_int64 dt 0L
let one dt = if Dtype.is_float dt then of_float dt 1.0 else of_int64 dt 1L

let dtype = function Int (dt, _) -> dt | Float (dt, _) -> dt

let clamp_int64 dt x =
  let lo = Dtype.min_int_value dt and hi = Dtype.max_int_value dt in
  if Int64.compare x lo < 0 then lo
  else if Int64.compare x hi > 0 then hi
  else x

let to_int64 = function
  | Int (_, x) -> x
  | Float (_, f) ->
    if Float.is_nan f then 0L
    else if f >= Int64.to_float Int64.max_int then Int64.max_int
    else if f <= Int64.to_float Int64.min_int then Int64.min_int
    else Int64.of_float f (* truncates toward zero *)

let to_float = function Int (_, x) -> Int64.to_float x | Float (_, f) -> f

let float_to_int_sat dt f =
  if Float.is_nan f then 0L
  else begin
    let lo = Dtype.min_int_value dt and hi = Dtype.max_int_value dt in
    if f <= Int64.to_float lo then lo
    else if f >= Int64.to_float hi then hi
    else Int64.of_float f
  end

let cast dst v =
  match v, Dtype.is_float dst with
  | Int (_, x), false -> Int (dst, wrap dst x)
  | Int (_, x), true -> Float (dst, round_to_precision dst (Int64.to_float x))
  | Float (_, f), false -> Int (dst, float_to_int_sat dst f)
  | Float (_, f), true -> Float (dst, round_to_precision dst f)

let cast_saturating dst v =
  match v, Dtype.is_float dst with
  | Int (_, x), false -> Int (dst, clamp_int64 dst x)
  | _ -> cast dst v

(* Binary arithmetic: both operands must share a dtype; the expression
   builders guarantee this, so a mismatch is a bug in a lowering pass. *)
let lift name int_op float_op a b =
  match a, b with
  | Int (da, x), Int (db, y) when Dtype.equal da db -> Int (da, wrap da (int_op x y))
  | Float (da, x), Float (db, y) when Dtype.equal da db ->
    Float (da, round_to_precision da (float_op x y))
  | _ ->
    invalid_arg
      (Printf.sprintf "Value.%s: dtype mismatch (%s vs %s)" name
         (Dtype.to_string (dtype a))
         (Dtype.to_string (dtype b)))

let add a b = lift "add" Int64.add ( +. ) a b
let sub a b = lift "sub" Int64.sub ( -. ) a b
let mul a b = lift "mul" Int64.mul ( *. ) a b

let div a b =
  let int_div x y = if y = 0L then 0L else Int64.div x y in
  lift "div" int_div ( /. ) a b

let rem a b =
  let int_rem x y = if y = 0L then 0L else Int64.rem x y in
  lift "rem" int_rem Float.rem a b

let min a b = lift "min" Stdlib.min Float.min a b
let max a b = lift "max" Stdlib.max Float.max a b

let neg = function
  | Int (dt, x) -> Int (dt, wrap dt (Int64.neg x))
  | Float (dt, f) -> Float (dt, -.f)

let equal a b =
  match a, b with
  | Int (da, x), Int (db, y) -> Dtype.equal da db && x = y
  | Float (da, x), Float (db, y) ->
    Dtype.equal da db && (x = y || (Float.is_nan x && Float.is_nan y))
  | Int _, Float _ | Float _, Int _ -> false

let compare_num a b =
  match a, b with
  | Int (_, x), Int (_, y) -> Int64.compare x y
  | _ -> Float.compare (to_float a) (to_float b)

let shift_right_rounding v n =
  match v with
  | Float _ -> invalid_arg "Value.shift_right_rounding: float value"
  | Int (dt, x) ->
    if n <= 0 then Int (dt, x)
    else begin
      let shifted = Int64.shift_right x n in
      let rem = Int64.logand x (Int64.sub (Int64.shift_left 1L n) 1L) in
      let half = Int64.shift_left 1L (n - 1) in
      let rounded =
        if Int64.compare rem half >= 0 then Int64.add shifted 1L else shifted
      in
      Int (dt, wrap dt rounded)
    end

let round_float = round_to_precision

let to_string = function
  | Int (dt, x) -> Printf.sprintf "%Ld%s" x (Dtype.to_string dt)
  | Float (dt, f) -> Printf.sprintf "%g%s" f (Dtype.to_string dt)

let pp fmt v = Format.pp_print_string fmt (to_string v)
