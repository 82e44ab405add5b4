open Unit_dtype
open Unit_codegen
module Obs = Unit_obs.Obs

(* Multiply-accumulates a conv2d or dense call performs by its shapes,
   kernel taps that fall on padding included. *)
let c_macs = Obs.counter "exec.macs"

(* Of those, the MACs a quantized conv2d did two per multiply, in lane
   pairs. *)
let c_lanes_paired = Obs.counter "exec.lanes_paired"

(* Of those, the MACs a quantized conv2d did in the panel kernel. *)
let c_panel_macs = Obs.counter "exec.panel_macs"

(* Output elements a fused quantized conv2d stored through the integer
   requantizer, and the channels whose bias step it left in floats. *)
let c_requant_int = Obs.counter "exec.requant_int"
let c_requant_fallback = Obs.counter "exec.requant_fallback"

(* Weights synthesized into a graph's prepared storage; a graph's second
   run adds nothing. *)
let c_weights_prepared = Obs.counter ~always:true "exec.weights_prepared"

(* Per-node span label.  The full node name goes in the span detail
   (built only when tracing is on), so labels stay low-cardinality for
   aggregation. *)
let kind_label = function
  | Graph.Input _ -> "exec.input"
  | Graph.Weight _ -> "exec.weight"
  | Graph.Conv2d _ -> "exec.conv2d"
  | Graph.Conv3d _ -> "exec.conv3d"
  | Graph.Dense _ -> "exec.dense"
  | Graph.Bias_add -> "exec.bias_add"
  | Graph.Relu -> "exec.relu"
  | Graph.Clip _ -> "exec.clip"
  | Graph.Add -> "exec.add"
  | Graph.Pool _ -> "exec.pool"
  | Graph.Global_avg_pool -> "exec.global_avg_pool"
  | Graph.Flatten -> "exec.flatten"
  | Graph.Concat -> "exec.concat"
  | Graph.Softmax -> "exec.softmax"
  | Graph.Quantize _ -> "exec.quantize"
  | Graph.Dequantize _ -> "exec.dequantize"

type value = {
  arr : Ndarray.t;
  scale : float;
}

exception Exec_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

let is_quantized v = Dtype.is_integer v.arr.Ndarray.dtype

(* The real value of each element by flat offset: the storage class is
   matched once per tensor, then every read is raw and unboxed.  A view's
   reads past its own elements land in the backing array, so callers check
   operand shapes first. *)
let reader v =
  let s = v.scale and off = v.arr.Ndarray.offset in
  match v.arr.Ndarray.storage with
  | Ndarray.Float_data a -> fun i -> a.(off + i) *. s
  | Ndarray.Int_data a -> fun i -> Float.of_int a.(off + i) *. s
  | Ndarray.Int64_data a -> fun i -> Int64.to_float a.(off + i) *. s

let qmax dtype = Int64.to_float (Dtype.max_int_value dtype)

(* The largest magnitude an integer dtype holds: 255 for U8, 128 for I8. *)
let maxabs dtype = Float.max (qmax dtype) (Float.abs (Int64.to_float (Dtype.min_int_value dtype)))

(* Whether storing the real value of every [dtype] value [q] held at
   [scale] gives [q] back: for a finite scale [s > 0] whose product with
   the dtype's largest magnitude is finite, [round (q *. s /. s)] is
   [q]. *)
let round_trips dtype scale = scale > 0.0 && Float.is_finite (scale *. maxabs dtype)

(* A destination factory: where an operator's output array should live.
   [None] allocates a fresh per-op buffer (the historical behaviour);
   arena-planned execution hands back a view into the shared arena.  The
   factory is consulted with the runtime dtype and shape, so a plan slot
   can double-check both before exposing its bytes. *)
type dst = dtype:Dtype.t -> shape:int list -> Ndarray.t option

let no_dst ~dtype:_ ~shape:_ = None

(* ---------- raw storage ---------- *)

(* Every store indexes the backing arrays directly: the storage class is
   matched once per op and elements are addressed as
   [payload.(offset + flat)].  Weight synthesis, conv2d and dense run
   their own loops; every other op stores through [reals].  All of them
   round alike: [round_f32] is [Value.round_float F32] and [saturate] is
   [Ndarray.fill_float]'s integer store. *)

let int_payload what (a : Ndarray.t) =
  match a.Ndarray.storage with
  | Ndarray.Int_data x -> x
  | _ -> error "%s: %s tensor is not in int storage" what (Dtype.to_string a.Ndarray.dtype)

let float_payload what (a : Ndarray.t) =
  match a.Ndarray.storage with
  | Ndarray.Float_data x -> x
  | _ -> error "%s: %s tensor is not in float storage" what (Dtype.to_string a.Ndarray.dtype)

(* The arena view [dst] offers, else a fresh array. *)
let output_array ~dst ~dtype ~shape =
  match dst ~dtype ~shape with
  | Some view -> view
  | None -> Ndarray.zeros ~dtype ~shape

let[@inline] round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* Round to nearest, then clamp, as [fill_float] stores into [lo, hi].
   Below 2^62 in magnitude [Float.to_int] is its Int64 conversion; beyond
   that, and for infinities and NaN, where [Float.to_int] drops the top
   bit (giving 0 for both infinities), the value takes [fill_float]'s own
   conversion. *)
let saturate_wide ~lo ~hi r =
  let x = Int64.of_float r in
  if Int64.compare x (Int64.of_int lo) < 0 then lo
  else if Int64.compare x (Int64.of_int hi) > 0 then hi
  else Int64.to_int x

let[@inline] saturate ~lo ~hi y =
  let r = Float.round y in
  if Float.abs r < 0x1p62 then begin
    let x = Float.to_int r in
    if x < lo then lo else if x > hi then hi else x
  end
  else saturate_wide ~lo ~hi r

let int_bounds dtype =
  (Int64.to_int (Dtype.min_int_value dtype), Int64.to_int (Dtype.max_int_value dtype))

let dims a = String.concat "; " (Array.to_list (Array.map string_of_int a))

(* The one store loop of real numbers: element [pos + i] of [arr], for
   [i < len], represents [f i], exactly as [Ndarray.fill_float] stores
   it.  Floats round to the dtype's precision (F64 is left as is);
   integers store [f i /. scale] rounded to nearest and saturated at the
   dtype's bounds. *)
let store_reals arr ~scale ~pos ~len f =
  let off = arr.Ndarray.offset + pos and last = len - 1 in
  match arr.Ndarray.storage with
  | Ndarray.Float_data a ->
    let round = Value.round_float arr.Ndarray.dtype in
    for i = 0 to last do
      a.(off + i) <- round (f i)
    done
  | Ndarray.Int_data a ->
    let lo, hi = int_bounds arr.Ndarray.dtype in
    for i = 0 to last do
      a.(off + i) <- saturate ~lo ~hi (f i /. scale)
    done
  | Ndarray.Int64_data a ->
    for i = 0 to last do
      a.(off + i) <- Int64.of_float (Float.round (f i /. scale))
    done

(* A fresh [shape] tensor of [dtype] (or the arena view [dst] offers)
   whose element [i] represents [f i]. *)
let reals ?(dst = no_dst) ~dtype ~scale ~shape f =
  let arr = output_array ~dst ~dtype ~shape in
  store_reals arr ~scale ~pos:0 ~len:(Ndarray.num_elements arr) f;
  { arr; scale = (if Dtype.is_float dtype then 1.0 else scale) }

(* The real number [reals] would store for [x] in [dtype] at [scale],
   read back: how a chain rounds between stages without storing. *)
let reload dtype scale =
  match Ndarray.class_of_dtype dtype with
  | Ndarray.Float_class -> Value.round_float dtype
  | Ndarray.Int_class ->
    let lo, hi = int_bounds dtype in
    fun x -> Float.of_int (saturate ~lo ~hi (x /. scale)) *. scale
  | Ndarray.Int64_class -> fun x -> Int64.to_float (Int64.of_float (Float.round (x /. scale))) *. scale

(* ---------- deterministic parameter synthesis ---------- *)

let hash_mix a b =
  let x = (a * 2654435761) lxor (b * 40503) lxor 0x9e3779b9 in
  let x = x lxor (x lsr 13) in
  let x = x * 1274126177 land max_int in
  x lxor (x lsr 16)

(* [hash_mix] is non-negative, so a pseudo-random value in [-1, 1] is
   one of [buckets] levels. *)
let buckets = 2001
let unit_level h = (Float.of_int h /. 1000.0) -. 1.0
let unit_float seed i = unit_level (hash_mix seed i mod buckets)

(* Calls [f i b] for every element of a [shape] weight in row-major
   order: [i] is the element's flat offset and [b] its level,
   [hash_mix key p mod buckets] for the parameter index [p], the
   multi-index hashed as [((i0 * 1021 + i1) * 1021 + ...) mod n].  The
   innermost dimension is a plain loop stepping [p], so nothing is
   allocated or divided by [n] per element. *)
let iter_levels ~key shape f =
  let dims = Array.of_list shape in
  let n = Array.fold_left ( * ) 1 dims in
  let last = Array.length dims - 1 in
  let inner = if last < 0 then 1 else dims.(last) in
  if n > 0 then
    for row = 0 to (n / inner) - 1 do
      (* the row's outer multi-index, hashed and shifted past the last
         dimension; non-negative, so stepping p by one and wrapping at n
         is [(base + j) mod n] *)
      let base = ref 0 and rest = ref row and weight = ref 1021 in
      for d = last - 1 downto 0 do
        base := !base + (!rest mod dims.(d) * !weight);
        rest := !rest / dims.(d);
        weight := !weight * 1021
      done;
      let p = ref (!base mod n) in
      for j = 0 to inner - 1 do
        f ((row * inner) + j) (hash_mix key !p mod buckets);
        p := if !p = n - 1 then 0 else !p + 1
      done
    done

(* Each level's f32 parameter value, fan-in-scaled: every element of the
   weight is one of these, so a weight costs one hash and one load per
   element.  Keyed by the node's (stable) name, not its id: passes
   renumber ids but must see the same model parameters. *)
let param_levels (node : Graph.node) shape =
  let fan_in =
    match shape with
    | [ _bias ] -> 16
    | _ :: rest -> List.fold_left ( * ) 1 rest
    | [] -> 1
  in
  let scale = 1.0 /. Float.sqrt (Float.of_int (Stdlib.max 1 fan_in)) in
  (Hashtbl.hash node.Graph.name, Array.init buckets (fun h -> round_f32 (unit_level h *. scale)))

let synth_weight (node : Graph.node) shape =
  let key, levels = param_levels node shape in
  let arr = Ndarray.zeros ~dtype:Dtype.F32 ~shape in
  let a = float_payload node.Graph.name arr in
  iter_levels ~key shape (fun i b -> a.(i) <- levels.(b));
  arr

(* An integer-declared weight is self-quantized with its own max-abs
   (per-tensor symmetric, like offline weight quantization): the scale
   and each level's quantized value, given the levels its elements use. *)
let quantize_levels levels used dtype =
  (* the max-abs over the elements is the max over the levels they use *)
  let maxabs = ref 1e-6 in
  Array.iteri
    (fun b x -> if Bytes.get used b = '\001' then maxabs := Float.max !maxabs (Float.abs x))
    levels;
  let scale = !maxabs /. qmax dtype in
  let lo, hi = int_bounds dtype in
  (scale, Array.map (fun x -> saturate ~lo ~hi (x /. scale)) levels)

(* Until the scale is known, each element's level waits in its own slot
   of the integer output, so no f32 copy of the weight exists. *)
let weight_value (node : Graph.node) shape dtype =
  if Dtype.equal dtype Dtype.F32 then { arr = synth_weight node shape; scale = 1.0 }
  else begin
    let key, levels = param_levels node shape in
    let arr = Ndarray.zeros ~dtype ~shape in
    let q = int_payload node.Graph.name arr in
    let used = Bytes.make buckets '\000' in
    iter_levels ~key shape (fun i b ->
        q.(i) <- b;
        Bytes.set used b '\001');
    let scale, quantized = quantize_levels levels used dtype in
    for i = 0 to Array.length q - 1 do
      q.(i) <- quantized.(q.(i))
    done;
    { arr; scale }
  end

(* ---------- packed int8 weights ---------- *)

(* An I8 weight as the quantized conv2d and dense read it: one byte per
   element in row-major order ([Bytes.get_int8]), an eighth of its
   [int array] form. *)
type packed = {
  pk_bytes : Bytes.t;
  pk_shape : int array;
  pk_scale : float;
}

(* What a node evaluates to: a value, or an I8 weight in packed form. *)
type operand =
  | Value of value
  | Packed of packed

let pack what (v : value) =
  if not (Dtype.equal v.arr.Ndarray.dtype Dtype.I8) then
    error "%s: %s weights; quantized weights must be i8" what
      (Dtype.to_string v.arr.Ndarray.dtype);
  let x = int_payload what v.arr and off = v.arr.Ndarray.offset in
  let bytes = Bytes.create (Ndarray.num_elements v.arr) in
  for i = 0 to Bytes.length bytes - 1 do
    Bytes.set_int8 bytes i x.(off + i)
  done;
  { pk_bytes = bytes; pk_shape = Array.copy v.arr.Ndarray.shape; pk_scale = v.scale }

(* [pack (weight_value node shape I8)] without its [int array] form: one
   walk over the levels finds those the elements use, a second stores
   each element's quantized level. *)
let packed_value (node : Graph.node) shape =
  let key, levels = param_levels node shape in
  let used = Bytes.make buckets '\000' in
  iter_levels ~key shape (fun _ b -> Bytes.set used b '\001');
  let scale, quantized = quantize_levels levels used Dtype.I8 in
  let bytes = Bytes.create (List.fold_left ( * ) 1 shape) in
  iter_levels ~key shape (fun i b -> Bytes.set_int8 bytes i quantized.(b));
  { pk_bytes = bytes; pk_shape = Array.of_list shape; pk_scale = scale }

let unpack p =
  let arr = Ndarray.zeros ~dtype:Dtype.I8 ~shape:(Array.to_list p.pk_shape) in
  let x = int_payload "weight" arr in
  for i = 0 to Bytes.length p.pk_bytes - 1 do
    x.(i) <- Bytes.get_int8 p.pk_bytes i
  done;
  { arr; scale = p.pk_scale }

let value_of = function Value v -> v | Packed p -> unpack p
let packed_of what = function Packed p -> p | Value v -> pack what v

(* ---------- elementwise stages ---------- *)

let is_stage = function
  | Graph.Bias_add | Graph.Relu | Graph.Clip _ | Graph.Add | Graph.Quantize _
  | Graph.Dequantize _ -> true
  | _ -> false

(* An elementwise kind as one stage of a chain over a [shape] tensor held
   in [dtype] at [scale]: the stage's real value at flat offset [i] from
   the running value [x], and the dtype and scale its result is stored in.
   [extras] are the kind's operands after the running one. *)
let stage kind ~shape (dtype, scale) extras =
  let same f = (f, dtype, scale) in
  match kind, extras with
  | Graph.Relu, [] -> same (fun _ x -> Float.max 0.0 x)
  | Graph.Clip { lo; hi }, [] -> same (fun _ x -> Float.min hi (Float.max lo x))
  | Graph.Bias_add, [ bias ] ->
    if Array.length shape = 0 || bias.arr.Ndarray.shape <> [| shape.(0) |] then
      error "bias_add: bias [%s] for data [%s]; one element per channel expected"
        (dims bias.arr.Ndarray.shape) (dims shape);
    let inner = Array.fold_left ( * ) 1 (Array.sub shape 1 (Array.length shape - 1)) in
    let b = reader bias in
    same (fun i x -> x +. b (i / inner))
  | Graph.Add, [ b ] ->
    if b.arr.Ndarray.shape <> shape then
      error "add: operand shapes [%s] and [%s] differ" (dims shape) (dims b.arr.Ndarray.shape);
    let b = reader b in
    same (fun i x -> x +. b i)
  | Graph.Quantize { scale; dtype }, [] -> ((fun _ x -> x), dtype, scale)
  | Graph.Dequantize _, [] -> ((fun _ x -> x), Dtype.F32, 1.0)
  | _ -> error "arity mismatch during execution"

(* [f], the real value held in [repr] at flat offset [i], through every
   stage: the last stage's real value and the dtype and scale it is
   stored in.  Between stages each element is rounded in a register as a
   store and reload would round it. *)
let through ~shape repr f stages =
  let rec go f repr = function
    | [] -> error "empty stage chain"
    | (kind, extras) :: rest ->
      let g, dtype, scale = stage kind ~shape repr extras in
      (match rest with
       | [] -> ((fun i -> g i (f i)), dtype, scale)
       | _ ->
         let round = reload dtype scale in
         go (fun i -> round (g i (f i))) (dtype, scale) rest)
  in
  go f repr stages

(* [base] through every stage in one pass that stores only into [dst]:
   bit-identical to storing every stage, though only the last one is
   stored. *)
let chain ?dst base stages =
  let shape = base.arr.Ndarray.shape in
  let f, dtype, scale = through ~shape (base.arr.Ndarray.dtype, base.scale) (reader base) stages in
  reals ?dst ~dtype ~scale ~shape:(Array.to_list shape) f

(* ---------- integer requantization ---------- *)

(* A quantized conv2d fused with [Bias_add; (Relu | Clip)*; Quantize]
   stores its chain's output straight from its exact sums, in integers;
   the interface gives the three exactness arguments. *)

let lo32 = -0x8000_0000
let hi32 = 0x7fff_ffff
let[@inline] clamp32 v = if v < lo32 then lo32 else if v > hi32 then hi32 else v

(* The accumulator scales at which the I32 store of a sum [v],
   [saturate (of_int v *. s /. s)], is [clamp32 v]. *)
let exact_scale s = s >= 0x1p-900 && s <= 0x1p900

(* The bias step in integers needs [b /. s0] this far from a tie; its
   float error is below 2^-19. *)
let tie_margin = 0x1p-16

(* The chain after the bias stage as a map [g] from the bias stage's I32
   result [k] to the output level, for sums at scale [rq_s0].  [g] is
   non-decreasing, so it is stored as the [k]s where it steps. *)
type requant = {
  rq_s0 : float;
  rq_dtype : Dtype.t;
  rq_scale : float;
  rq_mul : int;
  rq_shift : int;
      (* [g k] is about [(k * rq_mul + 2^(rq_shift - 1)) asr rq_shift],
         [rq_mul] below 2^31 so the product fits *)
  rq_gmin : int;  (* [g] of the least I32 *)
  rq_steps : int array;
      (* [rq_steps.(j)] is the least I32 [k] with [g k >= rq_gmin + j], for
         [0 < j <= gmax - gmin]; [min_int] before them, [max_int] after *)
}

(* The stages after the bias, if they are [(Relu | Clip)*] then a
   [Quantize] to an int-storage dtype of at most 2^16 levels at a finite
   scale > 0: that dtype and scale. *)
let rec requant_tail = function
  | [ (Graph.Quantize { scale; dtype }, []) ] ->
    if Ndarray.class_of_dtype dtype = Ndarray.Int_class
       && (let lo, hi = int_bounds dtype in hi - lo < 0x10000)
       && Float.is_finite scale && scale > 0.0
    then Some (dtype, scale)
    else None
  | (Graph.Relu, []) :: rest -> requant_tail rest
  | (Graph.Clip { lo; hi }, []) :: rest when not (Float.is_nan lo || Float.is_nan hi) ->
    requant_tail rest
  | _ -> None

(* [tail]'s table for sums at scale [s0], or [None] where the integer
   store does not serve it.  [g] runs the chain's own float code from the
   bias stage's reload [of_int k *. s0] on, so each threshold, found by
   bisection over the I32 range, is exact. *)
let requant_table s0 tail =
  match requant_tail tail with
  | Some (dtype, scale) when exact_scale s0 && s0 /. scale <= 0x1p30 ->
    let f, _, _ = through ~shape:[||] (Dtype.I32, s0) (fun k -> Float.of_int k *. s0) tail in
    let lo, hi = int_bounds dtype in
    let g k = saturate ~lo ~hi (f k /. scale) in
    let gmin = g lo32 in
    let levels = g hi32 - gmin in
    let steps = Array.make (levels + 2) max_int in
    steps.(0) <- min_int;
    for j = 1 to levels do
      (* g below < gmin + j <= g above *)
      let below = ref (if j = 1 then lo32 else steps.(j - 1) - 1) and above = ref hi32 in
      while !above - !below > 1 do
        let mid = (!below + !above) asr 1 in
        if g mid >= gmin + j then above := mid else below := mid
      done;
      steps.(j) <- !above
    done;
    (* [g k] is about [round (k * slope)]: in fixed point, [slope * 2^shift]
       in [2^30, 2^31) where the shift allows *)
    let slope = s0 /. scale in
    let shift = Int.min 62 (31 - snd (Float.frexp slope)) in
    Some
      { rq_s0 = s0;
        rq_dtype = dtype;
        rq_scale = scale;
        rq_mul = Float.to_int (Float.ldexp slope shift);
        rq_shift = shift;
        rq_gmin = gmin;
        rq_steps = steps
      }
  | _ -> None

(* [acc.(i) + r], for [lo <= i < hi], as output levels into
   [o.(i + delta)]: an estimate, then the steps on either side decide.
   Its own function, so the loop's values stay in registers. *)
let store_levels rq r acc lo hi o delta =
  let steps = rq.rq_steps and gmin = rq.rq_gmin in
  let mul = rq.rq_mul and shift = rq.rq_shift in
  let half = if shift = 0 then 0 else 1 lsl (shift - 1) and top = Array.length steps - 2 in
  for i = lo to hi - 1 do
    let k = clamp32 (clamp32 (Array.unsafe_get acc i) + r) in
    let e = (((k * mul) + half) asr shift) - gmin in
    let e = ref (if e < 0 then 0 else if e > top then top else e) in
    while Array.unsafe_get steps (!e + 1) <= k do
      incr e
    done;
    while Array.unsafe_get steps !e > k do
      decr e
    done;
    Array.unsafe_set o (i + delta) (gmin + !e)
  done

(* Channel [ko]'s sums [acc.(aoff + i)], [i < plane], stored as the
   chain's output levels into [o.(obase + i)]; the caller keeps both
   ranges inside their arrays.  A channel whose bias step is not exact in
   integers first replaces each sum in place by the float step's result,
   which the table then takes as is. *)
let requant_channel rq ~bias ko acc aoff o obase plane =
  let s0 = rq.rq_s0 and b = bias ko in
  let beta = b /. s0 in
  let r =
    if Float.abs beta < 0x1p31 && Float.abs (beta -. Float.floor beta -. 0.5) > tie_margin then
      Float.to_int (Float.round beta)
    else begin
      Obs.incr c_requant_fallback;
      for i = aoff to aoff + plane - 1 do
        acc.(i) <- saturate ~lo:lo32 ~hi:hi32 (((Float.of_int (clamp32 acc.(i)) *. s0) +. b) /. s0)
      done;
      0
    end
  in
  store_levels rq r acc aoff (aoff + plane) o (obase - aoff);
  Obs.add c_requant_int plane

let requantize ~accs ~shape ~scale stages =
  let n = List.fold_left ( * ) 1 shape in
  if Array.length accs <> n then
    error "requantize: %d sums for a [%s] tensor" (Array.length accs) (dims (Array.of_list shape));
  match shape, stages with
  | channels :: _, (Graph.Bias_add, [ bias ]) :: tail
    when channels > 0 && bias.arr.Ndarray.shape = [| channels |] ->
    Option.map
      (fun rq ->
        let arr = Ndarray.zeros ~dtype:rq.rq_dtype ~shape in
        let o = int_payload "requantize" arr and acc = Array.copy accs in
        let plane = n / channels and bias = reader bias in
        for ko = 0 to channels - 1 do
          requant_channel rq ~bias ko acc (ko * plane) o (ko * plane) plane
        done;
        { arr; scale = rq.rq_scale })
      (requant_table scale tail)
  | _ -> None

(* ---------- prepared graphs ---------- *)

(* Each graph's weights, synthesized by its first run and reused by every
   later one, and the requantization tables of its fused convs, built by
   the first run that needs them: one slot of each per node id.  The
   table is keyed by the graph's physical identity (a graph is immutable
   once built; [Hashtbl.hash] reads a bounded prefix of it), and an entry
   holds no reference back to its graph, so it is freed with the graph. *)
module Prepared = Ephemeron.K1.Make (struct
  type t = Graph.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type prepared = {
  pr_weights : operand option Atomic.t array;
  pr_requants : requant option Atomic.t array;
}

let prepared_lock = Mutex.create ()
let prepared_graphs : prepared Prepared.t = Prepared.create 8

let prepared g =
  Mutex.protect prepared_lock (fun () ->
      match Prepared.find_opt prepared_graphs g with
      | Some p -> p
      | None ->
        let slots () = Array.init (Graph.arity g) (fun _ -> Atomic.make None) in
        let p = { pr_weights = slots (); pr_requants = slots () } in
        Prepared.replace prepared_graphs g p;
        p)

(* The node's prepared weight, synthesized on first use.  Domains racing
   on one fresh graph may both synthesize it; the first to publish wins
   and the other adopts its (identical) weight. *)
let prepared_weight p (n : Graph.node) shape dtype =
  let slot = p.pr_weights.(n.Graph.id) in
  match Atomic.get slot with
  | Some w -> w
  | None ->
    let w =
      if Dtype.equal dtype Dtype.I8 then Packed (packed_value n shape)
      else Value (weight_value n shape dtype)
    in
    if Atomic.compare_and_set slot None (Some w) then Obs.incr c_weights_prepared;
    Option.get (Atomic.get slot)

(* The table for a fused conv's chain after its bias at scale [s0], from
   the node's slot if it was built for that scale; a new table replaces
   the slot's.  Racing domains build identical tables. *)
let prepared_requant slot s0 tail =
  match Atomic.get slot with
  | Some rq when rq.rq_s0 = s0 -> Some rq
  | _ ->
    let rq = requant_table s0 tail in
    if Option.is_some rq then Atomic.set slot rq;
    rq

let packed_weight g id =
  let n = Graph.node g id in
  match n.Graph.kind with
  | Graph.Weight { shape; dtype } ->
    (match prepared_weight (prepared g) n shape dtype with
     | Packed p -> Some (Bytes.copy p.pk_bytes)
     | Value _ -> None)
  | _ -> None

let default_input g ~seed =
  let input_node =
    match
      List.find_opt
        (fun (n : Graph.node) ->
          match n.Graph.kind with Graph.Input _ -> true | _ -> false)
        (Graph.nodes g)
    with
    | Some n -> n
    | None -> error "graph has no input node"
  in
  let shape = Graph.shape_of g input_node.Graph.id in
  Ndarray.init ~dtype:Dtype.F32 ~shape (fun idx ->
      let flat = Array.fold_left (fun acc i -> (acc * 2039) + i) seed idx in
      Value.of_float Dtype.F32 (Float.abs (unit_float seed flat)))

(* ---------- per-kind numerics ---------- *)

let shape3 v =
  match v.arr.Ndarray.shape with
  | [| c; h; w |] -> (c, h, w)
  | _ -> error "expected rank-3 activation"

(* [apply] is public and skips [Graph.build]'s checks, so conv2d and
   dense check their weight shape themselves: the conv's unchecked reads
   rely on it. *)
let weight_shape = function Value v -> v.arr.Ndarray.shape | Packed p -> p.pk_shape

let weight_scale = function Value v -> v.scale | Packed p -> p.pk_scale

(* ---------- the panel kernel ---------- *)

(* What a quantized conv works in: the bordered copy of a group's input
   planes, and the panel kernel's chunk sums, panel and weight row.  A
   conv takes a set from the free list, or an empty one, grows what it
   needs and gives it back when it ends, so steady-state convs allocate
   none and concurrent convs never share one. *)
type scratch = {
  mutable sums : int array;
  mutable panel : int array;
  mutable rows : int array;
  mutable border : int array;
}

let scratch_lock = Mutex.create ()
let free_scratch : scratch list ref = ref []

let take_scratch () =
  Mutex.protect scratch_lock (fun () ->
      match !free_scratch with
      | s :: rest ->
        free_scratch := rest;
        s
      | [] -> { sums = [||]; panel = [||]; rows = [||]; border = [||] })

let give_scratch s = Mutex.protect scratch_lock (fun () -> free_scratch := s :: !free_scratch)

(* The i8 weight at byte [i] of [wt]; unchecked. *)
let[@inline] weight_byte wt i = (Char.code (Bytes.unsafe_get wt i) lxor 0x80) - 0x80

(* [a] if it holds [n] ints, else a fresh array that does *)
let grown a n = if Array.length a >= n then a else Array.make n 0

(* [Array.blit] for ints, as a plain loop: a blit into an array outside
   the minor heap runs the write barrier on every element, which storing
   an int does not need. *)
let blit_ints (src : int array) so (dst : int array) o len =
  if so < 0 || o < 0 || len < 0 || so + len > Array.length src || o + len > Array.length dst then
    invalid_arg "blit_ints";
  for i = 0 to len - 1 do
    Array.unsafe_set dst (o + i) (Array.unsafe_get src (so + i))
  done

(* The microkernel: the sums of four output positions over a reduction
   of [n] terms, each held in a register from the first term to the
   last.  Position [j]'s operand [r] is [src.(base + r * rs + j)], from a
   panel ([rs = 4]) or in place from the data ([rs] its plane size), its
   weight [rows.(r)], and its sum goes to [acc.(ao + j)].  The caller
   keeps every index in bounds. *)
let kernel_4 rows src base rs n acc ao =
  let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
  let i = ref base in
  for r = 0 to n - 1 do
    let wv = Array.unsafe_get rows r and i0 = !i in
    s0 := !s0 + (wv * Array.unsafe_get src i0);
    s1 := !s1 + (wv * Array.unsafe_get src (i0 + 1));
    s2 := !s2 + (wv * Array.unsafe_get src (i0 + 2));
    s3 := !s3 + (wv * Array.unsafe_get src (i0 + 3));
    i := i0 + rs
  done;
  Array.unsafe_set acc ao !s0;
  Array.unsafe_set acc (ao + 1) !s1;
  Array.unsafe_set acc (ao + 2) !s2;
  Array.unsafe_set acc (ao + 3) !s3

(* The shape rule: an unpadded 1x1 stride-1 conv whose plane holds at
   least four positions reads its operands in place; every other conv
   with [kg >= 2] gathers a panel, in chunks of positions where the
   plane's would exceed [panel_words] ints (384 KB). *)
let panel_words = 3 lsl 14

let reads_in_place ~kern ~stride ~padding ~plane =
  kern = 1 && stride = 1 && padding = 0 && plane >= 4

(* Data is [c; h; w], weights [k; c/g; kern; kern], output [k; oh; ow].
   Quantized weights are read packed (a value operand is packed first).
   A quantized conv stores its sums as I32 at data scale times weight
   scale, or, given [requant] (a table for that scale and the bias), as
   the fused chain's output levels. *)
let conv2d ?(dst = no_dst) ?requant (attrs : Graph.conv2d_attrs) data weights =
  let c, h, w = shape3 data in
  let k = attrs.Graph.out_channels and groups = attrs.Graph.groups in
  let kern = attrs.Graph.kernel in
  let stride = attrs.Graph.stride in
  let padding = attrs.Graph.padding in
  if groups < 1 || c mod groups <> 0 || k mod groups <> 0 then
    error "conv2d: groups %d does not divide %d input and %d output channels" groups c k;
  let cg = c / groups and kg = k / groups in
  if weight_shape weights <> [| k; cg; kern; kern |] then
    error "conv2d: weight shape [%s], expected [%s]"
      (dims (weight_shape weights))
      (dims [| k; cg; kern; kern |]);
  if kern < 1 || stride < 1 || padding < 0 then
    error "conv2d: kernel %d, stride %d, padding %d" kern stride padding;
  let oh = Graph.conv_out_dim ~size:h ~kernel:kern ~stride ~padding in
  let ow = Graph.conv_out_dim ~size:w ~kernel:kern ~stride ~padding in
  let macs = oh * ow * cg * kern * kern in
  Obs.add c_macs (k * macs);
  let plane = oh * ow in
  let doff = data.arr.Ndarray.offset in
  if is_quantized data then begin
    let weights = packed_of "conv2d" weights in
    let s0 = data.scale *. weights.pk_scale in
    let out_dtype, out_scale =
      match requant with
      | None -> (Dtype.I32, s0)
      | Some (rq, _) ->
        if rq.rq_s0 <> s0 then error "conv2d: a table for sums at %h, not %h" rq.rq_s0 s0;
        (rq.rq_dtype, rq.rq_scale)
    in
    let out = output_array ~dst ~dtype:out_dtype ~shape:[ k; oh; ow ] in
    let ooff = out.Ndarray.offset in
    let d = int_payload "conv2d" data.arr and wt = weights.pk_bytes in
    let o = int_payload "conv2d" out in
    (* Both kernels read each group's planes from a bordered source (the
       data itself at padding 0, else a copy with [padding] zeros on
       every side) and clip no tap: a tap reads bordered row (column) at
       most [(oh - 1) * stride + kern - 1 <= h + 2 * padding - 1], which
       [conv_out_dim] keeps.  That, the checked weight shape and these two
       windows keep every index inside the arrays, which is what licenses
       the unchecked accesses below. *)
    if doff + (c * h * w) > Array.length d || ooff + (k * plane) > Array.length o then
      error "conv2d: an operand is smaller than its shape";
    let kk = kern * kern and hw = h * w in
    let n = cg * kk in
    let bw = w + (2 * padding) in
    let bhw = (h + (2 * padding)) * bw in
    let scratch = take_scratch () in
    let src =
      if padding = 0 then d
      else begin
        scratch.border <- grown scratch.border (cg * bhw);
        Array.fill scratch.border 0 (cg * bhw) 0;
        scratch.border
      end
    in
    (* Where group [g]'s bordered planes start in [src], [bhw] ints
       apart, rows [bw] apart; at padding 0 the data, else the border,
       its interior filled from the group's planes (the border stays 0
       from the conv's one fill). *)
    let source g =
      let dgroup = doff + (g * cg * hw) in
      if padding = 0 then dgroup
      else begin
        for ci = 0 to cg - 1 do
          for y = 0 to h - 1 do
            let into = (ci * bhw) + ((y + padding) * bw) + padding in
            blit_ints d (dgroup + (ci * hw) + (y * w)) src into w
          done
        done;
        0
      end
    in
    (* Every pass leaves its exact sums in the output planes, which the
       store then overwrites in place, channel [ko]'s plane at [obase]:
       the fused chain's levels, or the I32 store [saturate (of_int v *.
       s0 /. s0)], which is [clamp32 v] at every scale [exact_scale]
       admits. *)
    let store =
      match requant with
      | Some (rq, bias) ->
        let bias = reader bias in
        fun ko obase -> requant_channel rq ~bias ko o obase o obase plane
      | None when exact_scale s0 ->
        fun _ obase ->
          for i = obase to obase + plane - 1 do
            Array.unsafe_set o i (clamp32 (Array.unsafe_get o i))
          done
      | None ->
        fun _ obase ->
          for i = obase to obase + plane - 1 do
            o.(i) <- saturate ~lo:lo32 ~hi:hi32 (Float.of_int o.(i) *. s0 /. s0)
          done
    in
    if kg >= 2 then begin
      (* Lane pairs: a pass of the panel kernel runs output channels [ko]
         and [ko + 1] of one group.  Its weight row holds
         [w(ko) + w(ko + 1) lsl 31], so one multiply by an activation
         updates both sums, held in one slot as [lo + hi lsl 31].  That is
         exact while every sum of [cg * kern^2] terms of magnitude at most
         [maxabs data * 128] lies in [-2^30, 2^30): the low 31 bits,
         sign-extended, are then [lo].  Where the bound fails, or [ko]
         ends an odd group, the pass is one channel. *)
      let pairable = Float.of_int n *. maxabs data.arr.Ndarray.dtype *. 128.0 < 0x1p30 in
      let in_place = reads_in_place ~kern ~stride ~padding ~plane in
      (* positions per chunk: the whole plane read in place, else as many
         blocks of four as fit [panel_words] *)
      let chunk =
        if in_place then plane else Int.min plane (Int.max 4 ((panel_words / n) land lnot 3))
      in
      scratch.rows <- grown scratch.rows n;
      scratch.sums <- grown scratch.sums ((chunk + 3) land lnot 3);
      if not in_place then scratch.panel <- grown scratch.panel (((chunk + 3) land lnot 3) * n);
      let rows = scratch.rows and sums = scratch.sums and panel = scratch.panel in
      (* Positions [c0, c0 + len) of the group whose source starts at
         [sbase]: position [c0 + q]'s operand [r],
         [r = (ci * kern + kr) * kern + ks] as in a weight row, at
         [panel.(((q / 4 * n) + r) * 4 + q mod 4)].  In a last block of
         fewer than four positions the rest hold whatever an earlier conv
         left: their sums are never stored. *)
      let gather sbase c0 len =
        for q = 0 to len - 1 do
          let p = c0 + q in
          let at = sbase + (p / ow * stride * bw) + (p mod ow * stride) in
          let t0 = (q lsr 2 * 4 * n) + (q land 3) in
          for ci = 0 to cg - 1 do
            for kr = 0 to kern - 1 do
              let row = at + (ci * bhw) + (kr * bw) and t = t0 + (4 * ((ci * kk) + (kr * kern))) in
              for ks = 0 to kern - 1 do
                Array.unsafe_set panel (t + (4 * ks)) (Array.unsafe_get src (row + ks))
              done
            done
          done
        done
      in
      (* the weight row of channel [ko], or of the pair [ko, ko + 1] *)
      let fill ko pair =
        let t = ko * n in
        if pair then
          for r = 0 to n - 1 do
            Array.unsafe_set rows r (weight_byte wt (t + r) + (weight_byte wt (t + n + r) lsl 31))
          done
        else
          for r = 0 to n - 1 do
            Array.unsafe_set rows r (weight_byte wt (t + r))
          done
      in
      (* the chunk's sums, position [c0 + q]'s at [sums.(q)]: every block
         of four through the kernel; read in place, a plane that is no
         multiple of four ends with a block that overlaps the one before
         it *)
      let sweep sbase len =
        if in_place then begin
          for b = 0 to (plane / 4) - 1 do
            kernel_4 rows src (sbase + (4 * b)) bhw n sums (4 * b)
          done;
          if plane land 3 <> 0 then kernel_4 rows src (sbase + plane - 4) bhw n sums (plane - 4)
        end
        else
          for b = 0 to ((len + 3) / 4) - 1 do
            kernel_4 rows panel (4 * b * n) 4 n sums (4 * b)
          done
      in
      for g = 0 to groups - 1 do
        let sbase = source g and stop = (g + 1) * kg in
        let c0 = ref 0 in
        while !c0 < plane do
          let len = Int.min chunk (plane - !c0) in
          if not in_place then gather sbase !c0 len;
          let ko = ref (g * kg) in
          while !ko < stop do
            let pair = pairable && !ko + 1 < stop in
            fill !ko pair;
            sweep sbase len;
            let obase = ooff + (!ko * plane) + !c0 in
            if pair then
              (* each slot's low lane (the low 31 bits, sign-extended) to
                 channel [ko], its high lane to [ko + 1] *)
              for q = 0 to len - 1 do
                let v = Array.unsafe_get sums q in
                let lo = (v lsl 32) asr 32 in
                Array.unsafe_set o (obase + q) lo;
                Array.unsafe_set o (obase + plane + q) ((v - lo) asr 31)
              done
            else blit_ints sums 0 o obase len;
            ko := !ko + if pair then 2 else 1
          done;
          c0 := !c0 + len
        done;
        for ko = g * kg to stop - 1 do
          store ko (ooff + (ko * plane))
        done
      done;
      Obs.add c_panel_macs (k * macs);
      if pairable then Obs.add c_lanes_paired (2 * groups * (kg / 2) * macs)
    end
    else begin
      (* Depthwise ([kg = 1]): weight-stationary, one output channel per
         pass, which streams its source planes into the channel's output
         plane, every tap over the whole plane.  A slot update adds three
         horizontal taps of one channel (tap block); the taps of a row
         that no block covers run [tap], one term per update.  [at] is
         where the tap's (block's first tap's) input for output [0, 0]
         lies in [src]. *)
      let tap obase at wv =
        (* locals, so the loops do not reload them from the closure *)
        let o = o and src = src and stride = stride in
        for y = 0 to oh - 1 do
          let srow = at + (y * stride * bw) and orow = obase + (y * ow) in
          for x = 0 to ow - 1 do
            Array.unsafe_set o (orow + x)
              (Array.unsafe_get o (orow + x) + (wv * Array.unsafe_get src (srow + (x * stride))))
          done
        done
      in
      (* three taps from [at] with weights [t, t + 1, t + 2] *)
      let tap_block obase at t =
        let w0 = Bytes.get_int8 wt t and w1 = Bytes.get_int8 wt (t + 1) in
        let w2 = Bytes.get_int8 wt (t + 2) in
        let o = o and src = src and stride = stride in
        for y = 0 to oh - 1 do
          let srow = at + (y * stride * bw) and orow = obase + (y * ow) in
          for x = 0 to ow - 1 do
            let i = srow + (x * stride) in
            Array.unsafe_set o (orow + x)
              (Array.unsafe_get o (orow + x)
               + (w0 * Array.unsafe_get src i)
               + (w1 * Array.unsafe_get src (i + 1))
               + (w2 * Array.unsafe_get src (i + 2)))
          done
        done
      in
      let taps = kern - (kern mod 3) in
      for ko = 0 to k - 1 do
        let obase = ooff + (ko * plane) in
        Array.fill o obase plane 0;
        let sbase = source ko in
        for ci = 0 to cg - 1 do
          for r = 0 to kern - 1 do
            let at = sbase + (ci * bhw) + (r * bw) and wrow = (ko * n) + (ci * kk) + (r * kern) in
            for b = 0 to (taps / 3) - 1 do
              tap_block obase (at + (3 * b)) (wrow + (3 * b))
            done;
            for s = taps to kern - 1 do
              tap obase (at + s) (Bytes.get_int8 wt (wrow + s))
            done
          done
        done;
        store ko obase
      done
    end;
    give_scratch scratch;
    { arr = out; scale = out_scale }
  end
  else begin
    let weights = value_of weights in
    let out = output_array ~dst ~dtype:Dtype.F32 ~shape:[ k; oh; ow ] in
    let woff = weights.arr.Ndarray.offset and ooff = out.Ndarray.offset in
    let d = float_payload "conv2d" data.arr and wt = float_payload "conv2d" weights.arr in
    let o = float_payload "conv2d" out in
    let dscale = data.scale and wscale = weights.scale in
    (* output-stationary, so every sum keeps its (ci, r, s) order; taps
       outside the input are clipped per output position *)
    for ko = 0 to k - 1 do
      let group = ko / kg in
      for y = 0 to oh - 1 do
        let r0 = Int.max 0 (padding - (y * stride)) in
        let r1 = Int.min (kern - 1) (h - 1 + padding - (y * stride)) in
        for x = 0 to ow - 1 do
          let s0 = Int.max 0 (padding - (x * stride)) in
          let s1 = Int.min (kern - 1) (w - 1 + padding - (x * stride)) in
          let acc = ref 0.0 in
          for ci = 0 to cg - 1 do
            let dplane = doff + ((((group * cg) + ci) * h) * w) in
            let wtap = woff + (((ko * cg) + ci) * kern * kern) in
            for r = r0 to r1 do
              let drow = dplane + (((y * stride) + r - padding) * w) + (x * stride) - padding in
              let wrow = wtap + (r * kern) in
              for s = s0 to s1 do
                acc := !acc +. (d.(drow + s) *. dscale *. (wt.(wrow + s) *. wscale))
              done
            done
          done;
          o.(ooff + (ko * plane) + (y * ow) + x) <- round_f32 !acc
        done
      done
    done;
    { arr = out; scale = 1.0 }
  end

let conv3d ?dst (attrs : Graph.conv3d_attrs) data weights =
  let c, d, h, w =
    match data.arr.Ndarray.shape with
    | [| c; d; h; w |] -> (c, d, h, w)
    | _ -> error "conv3d expects rank-4 data"
  in
  let k = attrs.Graph.c3_out_channels in
  let dim size =
    Graph.conv_out_dim ~size ~kernel:attrs.Graph.c3_kernel ~stride:attrs.Graph.c3_stride
      ~padding:attrs.Graph.c3_padding
  in
  let od = dim d and oh = dim h and ow = dim w in
  let quantized = is_quantized data in
  let out_dtype = if quantized then Dtype.I32 else Dtype.F32 in
  let out_scale = if quantized then data.scale *. weights.scale else 1.0 in
  let rd = reader data and rw = reader weights in
  let kern = attrs.Graph.c3_kernel in
  let stride = attrs.Graph.c3_stride in
  let padding = attrs.Graph.c3_padding in
  (* data is [c; d; h; w], weights [k; c; kern; kern; kern] *)
  reals ?dst ~dtype:out_dtype ~scale:out_scale ~shape:[ k; od; oh; ow ] (fun i ->
      let x = i mod ow and y = i / ow mod oh and z = i / (ow * oh) mod od in
      let ko = i / (ow * oh * od) in
      let acc = ref 0.0 in
      for ci = 0 to c - 1 do
        for q = 0 to kern - 1 do
          let iz = (z * stride) + q - padding in
          if iz >= 0 && iz < d then
            for r = 0 to kern - 1 do
              let iy = (y * stride) + r - padding in
              if iy >= 0 && iy < h then
                for s = 0 to kern - 1 do
                  let ix = (x * stride) + s - padding in
                  if ix >= 0 && ix < w then
                    acc :=
                      !acc
                      +. rd ((((((ci * d) + iz) * h) + iy) * w) + ix)
                         *. rw ((((((((ko * c) + ci) * kern) + q) * kern) + r) * kern) + s)
                done
            done
        done
      done;
      !acc)

(* Float accumulation in both signatures: quantized payloads convert
   per element, as [Ndarray.get_float_flat] does. *)
let dense ?(dst = no_dst) units data weights =
  let k =
    match data.arr.Ndarray.shape with
    | [| k |] -> k
    | _ -> error "dense expects rank-1 data"
  in
  (* A graph run below its declared input size flattens to fewer
     features than a weight row holds; dense then reads the first
     [units * k] weights. *)
  (match weight_shape weights with
   | [| u; k' |] when u = units && k' >= k -> ()
   | got -> error "dense: weight shape [%s] for %d units of %d inputs" (dims got) units k);
  Obs.add c_macs (units * k);
  let out_dtype = if is_quantized data then Dtype.I32 else Dtype.F32 in
  let out = output_array ~dst ~dtype:out_dtype ~shape:[ units ] in
  let doff = data.arr.Ndarray.offset and ooff = out.Ndarray.offset in
  let dscale = data.scale in
  if is_quantized data then begin
    let weights = packed_of "dense" weights in
    let wscale = weights.pk_scale in
    let out_scale = dscale *. wscale in
    let d = int_payload "dense" data.arr and wt = weights.pk_bytes in
    let o = int_payload "dense" out in
    (* each input's real value, and each i8 weight's by its byte + 128 *)
    let x = Array.init k (fun i -> Float.of_int d.(doff + i) *. dscale) in
    let wreal = Array.init 256 (fun b -> Float.of_int (b - 128) *. wscale) in
    let[@inline] term xi row i = xi *. Array.unsafe_get wreal (Bytes.get_int8 wt (row + i) + 128) in
    let store u acc = o.(ooff + u) <- saturate ~lo:lo32 ~hi:hi32 (acc /. out_scale) in
    (* four units per pass, each summing its terms in input order *)
    let quads = units / 4 in
    for q = 0 to quads - 1 do
      let r0 = 4 * q * k in
      let r1 = r0 + k in
      let r2 = r1 + k in
      let r3 = r2 + k in
      let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
      for i = 0 to k - 1 do
        let xi = Array.unsafe_get x i in
        a0 := !a0 +. term xi r0 i;
        a1 := !a1 +. term xi r1 i;
        a2 := !a2 +. term xi r2 i;
        a3 := !a3 +. term xi r3 i
      done;
      store (4 * q) !a0;
      store ((4 * q) + 1) !a1;
      store ((4 * q) + 2) !a2;
      store ((4 * q) + 3) !a3
    done;
    for u = 4 * quads to units - 1 do
      let acc = ref 0.0 in
      for i = 0 to k - 1 do
        acc := !acc +. term (Array.unsafe_get x i) (u * k) i
      done;
      store u !acc
    done;
    { arr = out; scale = out_scale }
  end
  else begin
    let weights = value_of weights in
    let woff = weights.arr.Ndarray.offset and wscale = weights.scale in
    let d = float_payload "dense" data.arr and wt = float_payload "dense" weights.arr in
    let o = float_payload "dense" out in
    for u = 0 to units - 1 do
      let wrow = woff + (u * k) in
      let acc = ref 0.0 in
      for i = 0 to k - 1 do
        acc := !acc +. (d.(doff + i) *. dscale *. (wt.(wrow + i) *. wscale))
      done;
      o.(ooff + u) <- round_f32 !acc
    done;
    { arr = out; scale = 1.0 }
  end

(* A max pool over int storage whose values round-trip takes the integer
   max of each window: [of_int q *. s] is non-decreasing in [q], so the
   real-valued max stores the same [q].  A window with no tap inside the
   input stores what the real-valued max of no taps, [-infinity],
   stores. *)
let pool ?(dst = no_dst) pool_kind ~window ~stride ~padding data =
  let c, h, w = shape3 data in
  let oh = Graph.conv_out_dim ~size:h ~kernel:window ~stride ~padding in
  let ow = Graph.conv_out_dim ~size:w ~kernel:window ~stride ~padding in
  let dtype = data.arr.Ndarray.dtype and scale = data.scale in
  match pool_kind, data.arr.Ndarray.storage with
  | Graph.Max_pool, Ndarray.Int_data d when round_trips dtype scale ->
    let arr = output_array ~dst ~dtype ~shape:[ c; oh; ow ] in
    let o = int_payload "pool" arr in
    let lo, hi = int_bounds dtype in
    let empty = saturate ~lo ~hi (Float.neg_infinity /. scale) in
    let doff = data.arr.Ndarray.offset and ooff = arr.Ndarray.offset in
    for ch = 0 to c - 1 do
      for y = 0 to oh - 1 do
        let r0 = Int.max 0 (padding - (y * stride)) in
        let r1 = Int.min (window - 1) (h - 1 + padding - (y * stride)) in
        for x = 0 to ow - 1 do
          let s0 = Int.max 0 (padding - (x * stride)) in
          let s1 = Int.min (window - 1) (w - 1 + padding - (x * stride)) in
          let m = ref min_int in
          for r = r0 to r1 do
            let row = doff + (((ch * h) + (y * stride) + r - padding) * w) + (x * stride) - padding in
            for s = s0 to s1 do
              let q = d.(row + s) in
              if q > !m then m := q
            done
          done;
          o.(ooff + (((ch * oh) + y) * ow) + x) <- (if r0 > r1 || s0 > s1 then empty else !m)
        done
      done
    done;
    { arr; scale }
  | _ ->
    let rd = reader data in
    reals ~dst ~dtype ~scale ~shape:[ c; oh; ow ] (fun i ->
        let x = i mod ow and y = i / ow mod oh and ch = i / (ow * oh) in
        let acc = ref (match pool_kind with Graph.Max_pool -> Float.neg_infinity | Graph.Avg_pool -> 0.0) in
        let count = ref 0 in
        for r = 0 to window - 1 do
          for s = 0 to window - 1 do
            let iy = (y * stride) + r - padding in
            let ix = (x * stride) + s - padding in
            if iy >= 0 && iy < h && ix >= 0 && ix < w then begin
              let v = rd ((((ch * h) + iy) * w) + ix) in
              incr count;
              match pool_kind with
              | Graph.Max_pool -> acc := Float.max !acc v
              | Graph.Avg_pool -> acc := !acc +. v
            end
          done
        done;
        match pool_kind with
        | Graph.Max_pool -> !acc
        | Graph.Avg_pool -> !acc /. Float.of_int (Stdlib.max 1 !count))

let global_avg_pool ?dst data =
  let c, h, w = shape3 data in
  let rd = reader data in
  reals ?dst ~dtype:data.arr.Ndarray.dtype ~scale:data.scale ~shape:[ c ] (fun ch ->
      let acc = ref 0.0 in
      for i = ch * h * w to ((ch + 1) * h * w) - 1 do
        acc := !acc +. rd i
      done;
      !acc /. Float.of_int (h * w))

let flatten ?dst data =
  reals ?dst ~dtype:data.arr.Ndarray.dtype ~scale:data.scale
    ~shape:[ Ndarray.num_elements data.arr ] (reader data)

(* Inputs share their trailing dims, so each one is a consecutive flat
   range of the output.  An int-storage input of the output's dtype and
   scale is copied as it is where its values round-trip; any other input
   is stored as reals. *)
let concat ?(dst = no_dst) values =
  let trailing v =
    match Array.to_list v.arr.Ndarray.shape with
    | _ :: rest -> rest
    | [] -> error "concat: empty shape"
  in
  match values with
  | [] -> error "concat: no inputs"
  | first :: _ ->
    let spatial = trailing first in
    List.iter
      (fun v ->
        if trailing v <> spatial then
          error "concat: input [%s] does not share the trailing dims of [%s]"
            (dims v.arr.Ndarray.shape) (dims first.arr.Ndarray.shape))
      values;
    let dtype = first.arr.Ndarray.dtype and scale = first.scale in
    let channels = List.fold_left (fun acc v -> acc + v.arr.Ndarray.shape.(0)) 0 values in
    let arr = output_array ~dst ~dtype ~shape:(channels :: spatial) in
    let pos = ref 0 in
    List.iter
      (fun v ->
        let len = Ndarray.num_elements v.arr in
        (match v.arr.Ndarray.storage, arr.Ndarray.storage with
         | Ndarray.Int_data src, Ndarray.Int_data out
           when Dtype.equal v.arr.Ndarray.dtype dtype && v.scale = scale
                && round_trips dtype scale ->
           blit_ints src v.arr.Ndarray.offset out (arr.Ndarray.offset + !pos) len
         | _ -> store_reals arr ~scale ~pos:!pos ~len (reader v));
        pos := !pos + len)
      values;
    { arr; scale = (if Dtype.is_float dtype then 1.0 else scale) }

let softmax ?dst data =
  let n = Ndarray.num_elements data.arr in
  let xs = Array.init n (reader data) in
  let m = Array.fold_left Float.max Float.neg_infinity xs in
  let exps = Array.map (fun x -> Float.exp (x -. m)) xs in
  let total = Array.fold_left ( +. ) 0.0 exps in
  reals ?dst ~dtype:Dtype.F32 ~scale:1.0 ~shape:[ n ] (fun i -> exps.(i) /. total)

(* ---------- operator dispatch ---------- *)

(* One operator on its operands.  Conv2d and dense take their weight
   operand as it comes (packed weights stay packed); every other op
   reads values, and an elementwise kind is a chain of one stage based
   on its first operand. *)
let apply_op ?dst kind operands =
  match kind, operands with
  | Graph.Conv2d attrs, [ data; weights ] -> conv2d ?dst attrs (value_of data) weights
  | Graph.Dense { units }, [ data; weights ] -> dense ?dst units (value_of data) weights
  | _ -> (
    match kind, List.map value_of operands with
    | Graph.Conv3d attrs, [ data; weights ] -> conv3d ?dst attrs data weights
    | Graph.Pool { pool = k; window; stride; padding }, [ data ] ->
      pool ?dst k ~window ~stride ~padding data
    | Graph.Global_avg_pool, [ data ] -> global_avg_pool ?dst data
    | Graph.Flatten, [ data ] -> flatten ?dst data
    | Graph.Concat, values -> concat ?dst values
    | Graph.Softmax, [ data ] -> softmax ?dst data
    | kind, data :: extras when is_stage kind -> chain ?dst data [ (kind, extras) ]
    | (Graph.Input _ | Graph.Weight _), _ -> error "input/weight evaluated as op"
    | _ -> error "arity mismatch during execution")

let apply kind args = apply_op kind (List.map (fun v -> Value v) args)

(* ---------- arena plans ---------- *)

(* Mirror of the analysis layer's plan, kept primitive so this library
   does not depend on [lib/analysis]: the planner there lowers its plan
   into this shape ([Unit_analysis.Arena.exec_plan]).  Offsets and sizes
   are in backing-array elements ("host words") within the storage
   class's arena — exact for every dtype because each OCaml array element
   holds one tensor element regardless of the dtype's wire width. *)
type slot = {
  sl_id : Graph.id;
  sl_class : Ndarray.storage_class;
  sl_offset : int;
  sl_words : int;
}

type arena_plan = {
  ap_float_words : int;
  ap_int_words : int;
  ap_int64_words : int;
  ap_slots : slot list;
}

(* A run's arenas: one per storage class, by [class_index]. *)
let class_index = function
  | Ndarray.Float_class -> 0
  | Ndarray.Int_class -> 1
  | Ndarray.Int64_class -> 2

(* Arena sets that finished runs left for later ones, of any plan: a run
   takes a free set, or allocates one, and gives it back when it ends,
   so steady-state runs allocate no arena and concurrent runs never share
   one.  A free set too small for a plan is dropped for one big enough
   for both.  Every op writes each element of its output before a
   consumer reads it, so a reused arena is not cleared. *)
let free_lock = Mutex.create ()
let free_arenas : Ndarray.t array list ref = ref []

let take_arenas p =
  let need = [| p.ap_float_words; p.ap_int_words; p.ap_int64_words |] in
  let spare =
    Mutex.protect free_lock (fun () ->
        match !free_arenas with
        | a :: rest ->
          free_arenas := rest;
          Some a
        | [] -> None)
  in
  let words c = match spare with Some a -> Ndarray.num_elements a.(c) | None -> 0 in
  match spare with
  | Some a when words 0 >= need.(0) && words 1 >= need.(1) && words 2 >= need.(2) -> a
  | _ ->
    Array.mapi
      (fun c dtype -> Ndarray.zeros ~dtype ~shape:[ Int.max need.(c) (words c) ])
      [| Dtype.F32; Dtype.I32; Dtype.I64 |]

let give_back a = Mutex.protect free_lock (fun () -> free_arenas := a :: !free_arenas)

(* A slot's view reinterprets its window of [a] under the producing op's
   runtime dtype.  The factory re-checks class and capacity so a stale or
   corrupt plan fails loudly instead of silently aliasing. *)
let plan_dst p a : Graph.id -> dst =
  let slots : (int, slot) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace slots s.sl_id s) p.ap_slots;
  fun id ->
    match Hashtbl.find_opt slots id with
    | None -> no_dst
    | Some sl ->
      fun ~dtype ~shape ->
        if Ndarray.class_of_dtype dtype <> sl.sl_class then
          error "arena plan: node %d produced %s outside its planned storage class"
            id (Dtype.to_string dtype);
        let n = List.fold_left ( * ) 1 shape in
        if n > sl.sl_words then
          error "arena plan: node %d needs %d words but its slot holds %d" id n
            sl.sl_words;
        Some (Ndarray.view a.(class_index sl.sl_class) ~offset:sl.sl_offset ~dtype ~shape)

(* ---------- the walk ---------- *)

(* The first [k] operands of [n] and the rest; a negative [k] (variadic)
   takes them all. *)
let take (n : Graph.node) k xs =
  let rec go k acc xs =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> error "%s: missing inputs" n.Graph.name
      | x :: rest -> go (k - 1) (x :: acc) rest
  in
  if k < 0 then (xs, []) else go k [] xs

(* One node on its evaluated operands: the base op, then the stage chain
   of its fused epilogues, each with its own extra operands, in one pass
   that stores only into [node_dst]; a node whose own kind is elementwise
   heads the chain on its first operand.  A quantized conv2d whose chain
   the integer requantizer serves stores the chain's output itself, with
   the table from the node's [requant] slot; any other fused node's base
   op stores into one fresh buffer. *)
let eval_op (n : Graph.node) ~node_dst ~requant operands =
  let own, extra = take n (Graph.base_arity n.Graph.kind) operands in
  let leftover, fused =
    List.fold_left_map
      (fun extra kind ->
        let extras, rest = take n (Stdlib.max 0 (Graph.base_arity kind - 1)) extra in
        (rest, (kind, List.map value_of extras)))
      extra n.Graph.fused
  in
  if leftover <> [] then error "%s: unconsumed inputs" n.Graph.name;
  match n.Graph.kind, own, fused with
  | kind, data :: extras, _ when is_stage kind ->
    chain ~dst:node_dst (value_of data) ((kind, List.map value_of extras) :: fused)
  | kind, _, [] -> apply_op ~dst:node_dst kind own
  | Graph.Conv2d attrs, [ data; weights ], (Graph.Bias_add, [ bias ]) :: tail -> (
    let data = value_of data in
    let table =
      if is_quantized data && bias.arr.Ndarray.shape = [| attrs.Graph.out_channels |] then
        prepared_requant requant (data.scale *. weight_scale weights) tail
      else None
    in
    match table with
    | Some rq -> conv2d ~dst:node_dst ~requant:(rq, bias) attrs data weights
    | None -> chain ~dst:node_dst (conv2d attrs data weights) fused)
  | kind, _, _ -> chain ~dst:node_dst (apply_op kind own) fused

(* Evaluate [g] once, in node-id order: ids are dense and topologically
   ordered (enforced at graph construction), so every operand is ready
   when its consumer comes up and the results fit an array indexed by id.
   [dst_of id] places node [id]'s output; [observe] sees every node's
   result as it is produced.  Returns the output node's result. *)
let walk g ~input ~dst_of ~observe =
  let prepared = prepared g in
  let results = Array.make (Graph.arity g) None in
  let operand i = Option.get results.(i) in
  List.iter
    (fun (n : Graph.node) ->
      (* per-operator wall time; the string detail is only built when
         tracing is live, so the disabled path allocates nothing *)
      let tok =
        if Obs.enabled () then Obs.start (kind_label n.Graph.kind) ~detail:n.Graph.name
        else Obs.null_span
      in
      let v =
        Fun.protect ~finally:(fun () -> Obs.stop tok) @@ fun () ->
        let v =
          match n.Graph.kind with
          | Graph.Input { dtype; _ } ->
            if not (Dtype.equal input.Ndarray.dtype dtype) then
              error "input dtype mismatch";
            Value { arr = input; scale = 1.0 }
          | Graph.Weight { shape; dtype } -> prepared_weight prepared n shape dtype
          | _ ->
            Value
              (eval_op n ~node_dst:(dst_of n.Graph.id)
                 ~requant:prepared.pr_requants.(n.Graph.id)
                 (List.map operand n.Graph.inputs))
        in
        (* the output shape/dtype is only known post-hoc; same guard as
           the span itself so the disabled path allocates nothing *)
        if Obs.enabled () then begin
          let dtype, shape =
            match v with
            | Value v -> (v.arr.Ndarray.dtype, v.arr.Ndarray.shape)
            | Packed p -> (Dtype.I8, p.pk_shape)
          in
          Obs.annotate tok
            (Printf.sprintf "out=%s[%s]" (Dtype.to_string dtype)
               (String.concat "x" (List.map string_of_int (Array.to_list shape))))
        end;
        v
      in
      results.(n.Graph.id) <- Some v;
      observe n.Graph.id v)
    (Graph.nodes g);
  operand (Graph.output g)

(* [v] in fresh storage of its own, element for element. *)
let copy v =
  let arr = Ndarray.zeros ~dtype:v.arr.Ndarray.dtype ~shape:(Array.to_list v.arr.Ndarray.shape) in
  let n = Ndarray.num_elements arr and off = v.arr.Ndarray.offset in
  (match v.arr.Ndarray.storage, arr.Ndarray.storage with
   | Ndarray.Float_data x, Ndarray.Float_data y -> Array.blit x off y 0 n
   | Ndarray.Int_data x, Ndarray.Int_data y -> blit_ints x off y 0 n
   | Ndarray.Int64_data x, Ndarray.Int64_data y -> Array.blit x off y 0 n
   | _ -> error "copy: storage classes differ");
  { v with arr }

let run ?plan g ~input =
  (* neither prepared storage nor an arena is handed out: a weight
     output, or one that lives in an arena, is a copy *)
  let finish ?(arenas = [||]) = function
    | Value v
      when (match (Graph.node g (Graph.output g)).Graph.kind with
            | Graph.Weight _ -> true
            | _ -> false)
           || Array.exists (fun a -> v.arr.Ndarray.storage == a.Ndarray.storage) arenas ->
      copy v
    | w -> value_of w
  in
  let walk dst_of = walk g ~input ~dst_of ~observe:(fun _ _ -> ()) in
  match plan with
  | None -> finish (walk (fun _ -> no_dst))
  | Some p ->
    let arenas = take_arenas p in
    Fun.protect
      ~finally:(fun () -> give_back arenas)
      (fun () -> finish ~arenas (walk (plan_dst p arenas)))

let run_to_floats ?plan g ~input =
  let out = run ?plan g ~input in
  Array.init (Ndarray.num_elements out.arr) (reader out)

let calibrate g ~input =
  let maxima = Array.make (Graph.arity g) 1.0 in
  let abs_max v =
    let m = ref 1e-6 and read = reader v in
    for i = 0 to Ndarray.num_elements v.arr - 1 do
      m := Float.max !m (Float.abs (read i))
    done;
    !m
  in
  ignore
    (walk g ~input ~dst_of:(fun _ -> no_dst) ~observe:(fun id v ->
         maxima.(id) <- abs_max (value_of v))
      : operand);
  fun id -> if id >= 0 && id < Array.length maxima then maxima.(id) else 1.0
