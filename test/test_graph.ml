(* Tests for the graph substrate: construction/inference, the numeric
   executor, and the quantization and fusion passes (quantized inference
   must track fp32 within quantization error). *)

open Unit_dtype
open Unit_graph
module B = Graph.Builder
module Ndarray = Unit_codegen.Ndarray

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A miniature CNN with every structural feature the zoo uses: conv+bias+
   relu, residual add, pooling, concat, GAP, dense, softmax. *)
let tiny_cnn () =
  let b = B.create () in
  let data = B.input b ~shape:[ 3; 16; 16 ] Dtype.F32 in
  let c1 = B.relu b (B.bias_add b (B.conv2d b ~channels:8 ~kernel:3 ~padding:1 data)) in
  let c2 = B.relu b (B.bias_add b (B.conv2d b ~channels:8 ~kernel:3 ~padding:1 c1)) in
  let res = B.add b c1 c2 in
  let p = B.max_pool b ~window:2 ~stride:2 res in
  let br1 = B.relu b (B.conv2d b ~channels:8 ~kernel:1 p) in
  let br2 = B.relu b (B.conv2d b ~channels:8 ~kernel:3 ~padding:1 p) in
  let cat = B.concat b [ br1; br2 ] in
  let gap = B.global_avg_pool b cat in
  let fc = B.bias_add b (B.dense b ~units:10 gap) in
  B.finish b (B.softmax b fc)

(* The benchmark's seed-1 input image at [hw]x[hw]. *)
let golden_input ?(hw = 16) () =
  let st = Random.State.make [| 1 |] in
  Ndarray.init_float ~dtype:Dtype.F32 ~shape:[ 3; hw; hw ] (fun _ -> Random.State.float st 1.0)

(* Quantized squeezenet gives one distinct output value at 16x16 (and
   24x24), so every check that runs it at smoke scale takes 32x32, where
   it gives 82. *)
let squeezenet_hw = 32

let distinct_values (v : Executor.value) =
  let seen = Hashtbl.create 64 in
  for i = 0 to Ndarray.num_elements v.Executor.arr - 1 do
    Hashtbl.replace seen (Ndarray.get_float_flat v.Executor.arr i) ()
  done;
  Hashtbl.length seen

let test_shapes () =
  let g = tiny_cnn () in
  Alcotest.(check (list int)) "output" [ 10 ] (Graph.shape_of g (Graph.output g));
  check_bool "output f32" true (Dtype.equal (Graph.dtype_of g (Graph.output g)) Dtype.F32)

let test_builder_validation () =
  let b = B.create () in
  let x = B.input b ~shape:[ 3; 8; 8 ] Dtype.F32 in
  let y = B.conv2d b ~channels:4 ~kernel:3 ~padding:1 x in
  (* mismatched residual shapes *)
  match B.add b x y with
  | exception Graph.Graph_error _ -> ()
  | _ -> Alcotest.fail "shape mismatch accepted"

let test_conv_out_dim () =
  check_int "56 k3 s2 p1" 28 (Graph.conv_out_dim ~size:56 ~kernel:3 ~stride:2 ~padding:1);
  check_int "7 k1 s1 p0" 7 (Graph.conv_out_dim ~size:7 ~kernel:1 ~stride:1 ~padding:0);
  (* a kernel larger than the padded input has no window, not one
     rounded up from a negative numerator *)
  check_int "5 k7 s3 p0" 0 (Graph.conv_out_dim ~size:5 ~kernel:7 ~stride:3 ~padding:0);
  check_int "1 k3 s1 p0" 0 (Graph.conv_out_dim ~size:1 ~kernel:3 ~stride:1 ~padding:0);
  check_int "1 k3 s2 p1" 1 (Graph.conv_out_dim ~size:1 ~kernel:3 ~stride:2 ~padding:1)

let test_fp32_execution_deterministic () =
  let g = tiny_cnn () in
  let input = Executor.default_input g ~seed:1 in
  let a = Executor.run_to_floats g ~input in
  let b = Executor.run_to_floats g ~input in
  check_bool "deterministic" true (a = b);
  let total = Array.fold_left ( +. ) 0.0 a in
  check_bool "softmax sums to 1" true (Float.abs (total -. 1.0) < 1e-6)

let relative_error a b =
  let err = ref 0.0 in
  Array.iteri
    (fun i x -> err := Float.max !err (Float.abs (x -. b.(i))))
    a;
  !err

let test_quantized_tracks_fp32 () =
  let g = tiny_cnn () in
  let input = Executor.default_input g ~seed:2 in
  let fp32 = Executor.run_to_floats g ~input in
  let q = Passes.quantize ~act_dtype:Dtype.U8 ~calibration_seed:2 g in
  let qout = Executor.run_to_floats q ~input in
  check_int "same output size" (Array.length fp32) (Array.length qout);
  check_bool
    (Printf.sprintf "quantized close to fp32 (err %f)" (relative_error qout fp32))
    true
    (relative_error qout fp32 < 0.08)

let test_quantize_structure () =
  let g = tiny_cnn () in
  let q = Passes.quantize ~act_dtype:Dtype.U8 ~calibration_seed:1 g in
  let count pred = Passes.count_kind q pred in
  check_bool "has quantize nodes" true
    (count (function Graph.Quantize _ -> true | _ -> false) > 0);
  check_bool "has dequantize nodes" true
    (count (function Graph.Dequantize _ -> true | _ -> false) > 0);
  (* every conv weight is now i8 *)
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.kind with
      | Graph.Conv2d _ | Graph.Dense _ ->
        (match n.Graph.inputs with
         | [ _; w ] ->
           check_bool "weight is i8" true
             (Dtype.equal (Graph.dtype_of q w) Dtype.I8)
         | _ -> Alcotest.fail "compute node arity")
      | _ -> ())
    (Graph.nodes q);
  (* double quantization is rejected *)
  match Passes.quantize ~act_dtype:Dtype.U8 ~calibration_seed:1 q with
  | exception Passes.Pass_error _ -> ()
  | _ -> Alcotest.fail "double quantization accepted"

let test_quantize_arm_i8 () =
  let g = tiny_cnn () in
  let q = Passes.quantize ~act_dtype:Dtype.I8 ~calibration_seed:2 g in
  let input = Executor.default_input g ~seed:2 in
  let fp32 = Executor.run_to_floats g ~input in
  let qout = Executor.run_to_floats q ~input in
  check_bool "i8 activations also track fp32" true (relative_error qout fp32 < 0.1)

(* A fused node runs its whole epilogue chain in one pass, rounding
   between stages in registers; that must give, bit for bit, what the
   unfused graph stores node by node.  tiny_cnn calibrated, the zoo
   structurally quantized at smoke scale (squeezenet at
   [squeezenet_hw]), and a hand-built chain through every
   stage kind on a quantized and an f32 conv, ending in an integer or a
   float dtype, with and without an arena plan.  An unfused output of
   one distinct value fails: fused = unfused would compare constants. *)
let test_fusion_preserves_numerics () =
  let g = tiny_cnn () in
  let q = Passes.quantize ~act_dtype:Dtype.U8 ~calibration_seed:3 g in
  let fused = Passes.fuse q in
  check_bool "fusion shrinks the graph" true (Graph.arity fused < Graph.arity q);
  let input = Executor.default_input g ~seed:3 in
  let before = Executor.run_to_floats q ~input in
  let after = Executor.run_to_floats fused ~input in
  check_bool "identical results" true (before = after);
  let same what unfused fused ~input =
    let unfused_out = Executor.run unfused ~input in
    let expected = unfused_out.Executor.arr in
    check_bool (what ^ ": more than one distinct value") true (distinct_values unfused_out > 1);
    check_bool (what ^ ": fused = unfused") true
      (Ndarray.equal expected (Executor.run fused ~input).Executor.arr);
    let plan = Unit_analysis.Arena.(exec_plan (plan fused)) in
    check_bool (what ^ ": planned fused = unfused") true
      (Ndarray.equal expected (Executor.run ~plan fused ~input).Executor.arr)
  in
  List.iter
    (fun model ->
      let build =
        match Unit_models.Zoo.find model with
        | Some build -> build
        | None -> Alcotest.failf "no zoo model %s" model
      in
      let q = Passes.quantize_structural ~act_dtype:Dtype.U8 (build ()) in
      let fused = Passes.fuse q in
      check_bool (model ^ ": fusion shrinks the graph") true (Graph.arity fused < Graph.arity q);
      let hw = if model = "squeezenet" then squeezenet_hw else 16 in
      same model q fused ~input:(golden_input ~hw ()))
    [ "resnet18"; "mobilenet1.0"; "squeezenet" ];
  List.iter
    (fun (quantized, dequantize) ->
      let what =
        Printf.sprintf "%s chain to %s"
          (if quantized then "quantized" else "f32")
          (if dequantize then "f32" else "u8")
      in
      let wdtype = if quantized then Dtype.I8 else Dtype.F32 in
      let conv = { Graph.out_channels = 4; kernel = 3; stride = 1; padding = 1; groups = 1 } in
      let stages =
        [ Graph.Bias_add;
          Graph.Relu;
          Graph.Add;
          Graph.Clip { lo = -0.25; hi = 0.75 };
          Graph.Quantize { scale = 0.7 /. 255.0; dtype = Dtype.U8 }
        ]
        @ if dequantize then [ Graph.Dequantize { scale = 0.7 /. 255.0 } ] else []
      in
      (* 0 input, 1 conv data, 2 weight, 3 bias, 4 residual weight,
         5 residual, then the chain *)
      let prefix =
        [ ("x", Graph.Input { shape = [ 3; 6; 6 ]; dtype = Dtype.F32 }, [], []);
          ( "x_q",
            (if quantized then Graph.Quantize { scale = 1.0 /. 255.0; dtype = Dtype.U8 }
             else Graph.Relu),
            [ 0 ],
            [] );
          ("w", Graph.Weight { shape = [ 4; 3; 3; 3 ]; dtype = wdtype }, [], []);
          ("b", Graph.Weight { shape = [ 4 ]; dtype = Dtype.F32 }, [], []);
          ("w2", Graph.Weight { shape = [ 4; 3; 3; 3 ]; dtype = wdtype }, [], []);
          ("residual", Graph.Conv2d conv, [ 1; 4 ], [])
        ]
      in
      let fused =
        Graph.build (prefix @ [ ("conv", Graph.Conv2d conv, [ 1; 2; 3; 5 ], stages) ]) ~output:6
      in
      let unfused =
        Graph.build
          (prefix
          @ ("conv", Graph.Conv2d conv, [ 1; 2 ], [])
            :: List.mapi
                 (fun i kind ->
                   let id = 6 + i in
                   let extra =
                     match kind with Graph.Bias_add -> [ 3 ] | Graph.Add -> [ 5 ] | _ -> []
                   in
                   (Printf.sprintf "stage%d" i, kind, id :: extra, []))
                 stages)
          ~output:(6 + List.length stages)
      in
      same what unfused fused ~input:(Executor.default_input fused ~seed:4))
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_fusion_folds_epilogues () =
  let g = tiny_cnn () in
  let fused = Passes.fuse g in
  (* no standalone relu/bias directly consuming a conv remains *)
  let standalone_epilogues =
    Passes.count_kind fused (function
      | Graph.Bias_add | Graph.Relu -> true
      | _ -> false)
  in
  (* the residual add's relu consumers etc. may survive; but each conv's
     own bias+relu must be folded: tiny_cnn has 4 convs + 1 dense with
     epilogues, so at most the post-add ops remain *)
  check_bool "epilogues folded" true (standalone_epilogues = 0);
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.kind with
      | Graph.Conv2d _
        when List.exists (function Graph.Bias_add -> true | _ -> false) n.Graph.fused ->
        (* a folded bias brings its weight along as an extra input *)
        check_bool "fused bias keeps extra input" true (List.length n.Graph.inputs > 2)
      | _ -> ())
    (Graph.nodes fused)

(* Calibration walks fused epilogues like [run] does: the fused block's
   output max-abs is the unfused relu's. *)
let test_calibrate_fused () =
  let b = B.create () in
  let data = B.input b ~shape:[ 3; 8; 8 ] Dtype.F32 in
  let g =
    B.finish b (B.relu b (B.bias_add b (B.conv2d b ~channels:4 ~kernel:3 ~padding:1 data)))
  in
  let fused = Passes.fuse g in
  check_int "one fused conv block" 1
    (Passes.count_kind fused (function Graph.Conv2d _ -> true | _ -> false));
  let input = Executor.default_input g ~seed:5 in
  Alcotest.(check (float 0.0))
    "fused output max-abs"
    (Executor.calibrate g ~input (Graph.output g))
    (Executor.calibrate fused ~input (Graph.output fused))

let test_workload_extraction () =
  let g = tiny_cnn () in
  let workloads = Workload.of_graph g in
  (* c3->8 3x3, c8->8 3x3 at 16x16, c8->8 1x1 and c8->8 3x3 at 8x8 *)
  let convs =
    List.filter (fun (w, _) -> match w with Workload.Conv _ -> true | _ -> false)
      workloads
  in
  let denses =
    List.filter (fun (w, _) -> match w with Workload.Fc _ -> true | _ -> false) workloads
  in
  check_int "4 distinct convs" 4 (List.length convs);
  check_int "1 dense" 1 (List.length denses);
  (* duplicates are counted: reusing the same shape twice bumps the count *)
  let b = B.create () in
  let x = B.input b ~shape:[ 8; 8; 8 ] Dtype.F32 in
  let y = B.conv2d b ~channels:8 ~kernel:3 ~padding:1 x in
  let z = B.conv2d b ~channels:8 ~kernel:3 ~padding:1 y in
  let dup_graph = B.finish b z in
  (match Workload.of_graph dup_graph with
   | [ (Workload.Conv _, 2) ] -> ()
   | _ -> Alcotest.fail "expected one workload counted twice")

let test_workload_padding () =
  let wl =
    { Workload.c = 3; h = 224; w = 224; k = 62; kernel = 7; stride = 2; padding = 3;
      groups = 1 }
  in
  let spec = Workload.conv_spec ~lanes:16 ~reduce_width:4 wl in
  check_int "channels padded to 4" 4 spec.Unit_dsl.Op_library.in_channels;
  check_int "out channels padded to 16" 64 spec.Unit_dsl.Op_library.out_channels;
  check_int "spatial padding applied" 230 spec.Unit_dsl.Op_library.in_height;
  check_int "macs unpadded" (112 * 112 * 62 * 3 * 49) (Workload.macs (Workload.Conv wl))

let test_depthwise_workload_rejected_for_tensorization () =
  let wl =
    { Workload.c = 32; h = 14; w = 14; k = 32; kernel = 3; stride = 1; padding = 1;
      groups = 32 }
  in
  match Workload.conv_spec ~lanes:16 ~reduce_width:4 wl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "depthwise accepted"

(* ---------- raw-storage loops against the boxed formulation ---------- *)

(* Copies of the boxed code the executor's weight synthesis and conv2d
   loops replaced: an [Ndarray.init] closure per element, an f32
   temporary, an [Ndarray.fold] for max-abs, [real]/[flat_index] reads
   and bounds tests on every MAC.  The raw loops must match them bit for
   bit. *)

let ref_hash_mix a b =
  let x = (a * 2654435761) lxor (b * 40503) lxor 0x9e3779b9 in
  let x = x lxor (x lsr 13) in
  let x = x * 1274126177 land max_int in
  x lxor (x lsr 16)

let ref_unit_float seed i = (Float.of_int (ref_hash_mix seed i mod 2001) /. 1000.0) -. 1.0

let ref_synth_weight (node : Graph.node) shape =
  let fan_in =
    match shape with
    | [ _bias ] -> 16
    | _ :: rest -> List.fold_left ( * ) 1 rest
    | [] -> 1
  in
  let scale = 1.0 /. Float.sqrt (Float.of_int (Stdlib.max 1 fan_in)) in
  let n = List.fold_left ( * ) 1 shape in
  let key = Hashtbl.hash node.Graph.name in
  Ndarray.init ~dtype:Dtype.F32 ~shape (fun idx ->
      let flat = Array.fold_left (fun acc i -> (acc * 1021) + i) 0 idx mod n in
      Value.of_float Dtype.F32 (ref_unit_float key flat *. scale))

let ref_weight_value node shape dtype =
  let f32 = ref_synth_weight node shape in
  if Dtype.equal dtype Dtype.F32 then (f32, 1.0)
  else begin
    let maxabs =
      Ndarray.fold (fun acc x -> Float.max acc (Float.abs (Value.to_float x))) 1e-6 f32
    in
    let scale = maxabs /. Int64.to_float (Dtype.max_int_value dtype) in
    ( Ndarray.init_float ~dtype ~shape (fun idx ->
          Ndarray.get_float_flat f32 (Ndarray.flat_index f32 idx) *. 1.0 /. scale),
      scale )
  end

let ref_conv2d (attrs : Graph.conv2d_attrs) (data : Executor.value)
    (weights : Executor.value) =
  let c, h, w =
    match data.Executor.arr.Ndarray.shape with
    | [| c; h; w |] -> (c, h, w)
    | _ -> Alcotest.fail "conv2d data must be rank 3"
  in
  let k = attrs.Graph.out_channels in
  let cg = c / attrs.Graph.groups and kg = k / attrs.Graph.groups in
  let kern = attrs.Graph.kernel and stride = attrs.Graph.stride in
  let padding = attrs.Graph.padding in
  let oh = Graph.conv_out_dim ~size:h ~kernel:kern ~stride ~padding in
  let ow = Graph.conv_out_dim ~size:w ~kernel:kern ~stride ~padding in
  let darr = data.Executor.arr and warr = weights.Executor.arr in
  let dscale = data.Executor.scale and wscale = weights.Executor.scale in
  let quantized = Dtype.is_integer darr.Ndarray.dtype in
  let out_scale = if quantized then dscale *. wscale else 1.0 in
  let compute idx =
    let ko = idx.(0) and y = idx.(1) and x = idx.(2) in
    let group = ko / kg in
    if quantized then begin
      let acc = ref 0 in
      for ci = 0 to cg - 1 do
        let ch = (group * cg) + ci in
        for r = 0 to kern - 1 do
          let iy = (y * stride) + r - padding in
          if iy >= 0 && iy < h then
            for s = 0 to kern - 1 do
              let ix = (x * stride) + s - padding in
              if ix >= 0 && ix < w then
                acc :=
                  !acc
                  + Ndarray.get_int_flat darr ((((ch * h) + iy) * w) + ix)
                    * Ndarray.get_int_flat warr
                        ((((((ko * cg) + ci) * kern) + r) * kern) + s)
            done
        done
      done;
      Float.of_int !acc *. out_scale
    end
    else begin
      let acc = ref 0.0 in
      for ci = 0 to cg - 1 do
        let ch = (group * cg) + ci in
        for r = 0 to kern - 1 do
          let iy = (y * stride) + r - padding in
          if iy >= 0 && iy < h then
            for s = 0 to kern - 1 do
              let ix = (x * stride) + s - padding in
              if ix >= 0 && ix < w then
                acc :=
                  !acc
                  +. Ndarray.get_float_flat darr ((((ch * h) + iy) * w) + ix)
                     *. dscale
                     *. (Ndarray.get_float_flat warr
                           ((((((ko * cg) + ci) * kern) + r) * kern) + s)
                        *. wscale)
            done
        done
      done;
      !acc
    end
  in
  let shape = [ k; oh; ow ] in
  if quantized then
    (Ndarray.init_float ~dtype:Dtype.I32 ~shape (fun idx -> compute idx /. out_scale), out_scale)
  else (Ndarray.init_float ~dtype:Dtype.F32 ~shape compute, 1.0)

(* A tensor living [offset] elements into a larger backing array whose
   other elements are junk, the way an arena slot does. *)
let arena_view ~offset ~dtype ~shape f =
  let n = List.fold_left ( * ) 1 shape in
  let backing = if Dtype.is_float dtype then Dtype.F32 else Dtype.I32 in
  let base = Ndarray.zeros ~dtype:backing ~shape:[ offset + n + 3 ] in
  Ndarray.fill_float base (fun _ -> 77.0);
  let v = Ndarray.view base ~offset ~dtype ~shape in
  Ndarray.fill_float v f;
  v

(* The executor's conv2d on [channels x h x w] data against the boxed
   formula, with data and weights read through arena views at nonzero
   offsets.  [apply] packs an i8 weight view, so the quantized case runs
   the packed-weight reader [run] uses. *)
let conv_matches_boxed ~quantized ~seed (attrs : Graph.conv2d_attrs) ~channels ~h ~w =
  let st = Random.State.make [| seed |] in
  let data_dtype, weight_dtype =
    if quantized then (Dtype.U8, Dtype.I8) else (Dtype.F32, Dtype.F32)
  in
  let draw lo span _ =
    if quantized then Float.of_int (lo + Random.State.int st span)
    else Random.State.float st 2.0 -. 1.0
  in
  let data =
    { Executor.arr =
        arena_view ~offset:(1 + Random.State.int st 9) ~dtype:data_dtype
          ~shape:[ channels; h; w ] (draw 0 256);
      scale = (if quantized then 0.0123 else 1.0)
    }
  in
  let kern = attrs.Graph.kernel in
  let weights =
    { Executor.arr =
        arena_view ~offset:(1 + Random.State.int st 9) ~dtype:weight_dtype
          ~shape:[ attrs.Graph.out_channels; channels / attrs.Graph.groups; kern; kern ]
          (draw (-128) 256);
      scale = (if quantized then 0.0071 else 1.0)
    }
  in
  let got = Executor.apply (Graph.Conv2d attrs) [ data; weights ] in
  let expected, scale = ref_conv2d attrs data weights in
  Ndarray.equal got.Executor.arr expected && got.Executor.scale = scale

(* groups: 0 dense, 1 two groups (dense when [channels] is odd), 2
   depthwise *)
let conv_case_gen =
  QCheck.Gen.(
    pair
      (quad (oneofl [ 1; 3; 5; 7 ]) (oneofl [ 1; 2 ]) (int_range 0 3) (int_range 0 2))
      (triple (int_range 1 9) bool (int_range 0 1_000_000)))

let conv_groups ~channels = function
  | 0 -> 1
  | 1 -> if channels mod 2 = 0 then 2 else 1
  | _ -> channels

let print_conv_case ((kernel, stride, padding, grouping), (channels, quantized, seed)) =
  Printf.sprintf "kernel=%d stride=%d padding=%d groups=%d channels=%d quantized=%b seed=%d"
    kernel stride padding (conv_groups ~channels grouping) channels quantized seed

(* The integer (and float) conv2d loop nests against the boxed formula,
   over 1x1 to 7x7 kernels, both strides, paddings 0 to 3, 1 to 9
   channels (every remainder of a four-channel block), dense, two-group
   and depthwise grouping, and inputs down to a 1x1 output. *)
let prop_conv2d_matches_boxed =
  QCheck.Test.make ~name:"raw conv2d = boxed formula (views, groups, stride, padding)"
    ~count:1000
    (QCheck.make ~print:print_conv_case conv_case_gen)
    (fun ((kernel, stride, padding, grouping), (channels, quantized, seed)) ->
      let st = Random.State.make [| seed |] in
      let groups = conv_groups ~channels grouping in
      let k = groups * (1 + Random.State.int st (if groups = 1 then 6 else 2)) in
      let min_size = Stdlib.max 1 (kernel - (2 * padding)) in
      let h = min_size + Random.State.int st 6 and w = min_size + Random.State.int st 6 in
      let attrs = { Graph.out_channels = k; kernel; stride; padding; groups } in
      conv_matches_boxed ~quantized ~seed attrs ~channels ~h ~w)

(* Shapes that reach the edge cases of the quantized conv's bordered
   source, its panel gather and its depthwise tap blocks, pinned. *)
let test_conv2d_pinned_shapes () =
  let case what ~channels ~k ~kernel ~stride ~padding ~groups ~h ~w =
    let attrs = { Graph.out_channels = k; kernel; stride; padding; groups } in
    List.iter
      (fun quantized ->
        check_bool
          (Printf.sprintf "%s, %s" what (if quantized then "quantized" else "f32"))
          true
          (conv_matches_boxed ~quantized ~seed:7 attrs ~channels ~h ~w))
      [ true; false ]
  in
  (* depthwise outputs narrower than a tap block's three taps *)
  List.iter
    (fun (h, w) ->
      case
        (Printf.sprintf "depthwise 3x3 padding 1 on %dx%d" h w)
        ~channels:4 ~k:4 ~kernel:3 ~stride:1 ~padding:1 ~groups:4 ~h ~w)
    [ (1, 1); (2, 1); (1, 2) ];
  case "resnet18 stem on 11x9" ~channels:3 ~k:5 ~kernel:7 ~stride:2 ~padding:3 ~groups:1 ~h:11
    ~w:9;
  case "9 channels 3x3 on 2x2" ~channels:9 ~k:3 ~kernel:3 ~stride:1 ~padding:1 ~groups:1 ~h:2
    ~w:2;
  (* tap blocks plus leftover taps *)
  case "depthwise 5x5 padding 2 on 6x7" ~channels:3 ~k:3 ~kernel:5 ~stride:1 ~padding:2 ~groups:3
    ~h:6 ~w:7;
  case "depthwise 7x7 stride 2 padding 3 on 9x8" ~channels:2 ~k:2 ~kernel:7 ~stride:2 ~padding:3
    ~groups:2 ~h:9 ~w:8;
  (* padding at least the kernel: whole rows and columns in the border *)
  case "3x3 padding 3 on 4x5" ~channels:2 ~k:4 ~kernel:3 ~stride:1 ~padding:3 ~groups:1 ~h:4 ~w:5;
  case "depthwise 3x3 stride 2 padding 4 on 3x2" ~channels:3 ~k:3 ~kernel:3 ~stride:2 ~padding:4
    ~groups:3 ~h:3 ~w:2;
  case "stride 3, 3x3 padding 1 on 8x7" ~channels:4 ~k:4 ~kernel:3 ~stride:3 ~padding:1 ~groups:1
    ~h:8 ~w:7;
  case "depthwise stride 3, 5x5 padding 2 on 10x9" ~channels:2 ~k:2 ~kernel:5 ~stride:3 ~padding:2
    ~groups:2 ~h:10 ~w:9;
  case "two channels a group, one output each" ~channels:6 ~k:3 ~kernel:3 ~stride:1 ~padding:1
    ~groups:3 ~h:5 ~w:4;
  (* a 1-pixel-wide output *)
  case "3x3 on 6x3" ~channels:3 ~k:2 ~kernel:3 ~stride:1 ~padding:0 ~groups:1 ~h:6 ~w:3;
  case "depthwise 5x5 padding 1 on 5x3" ~channels:2 ~k:2 ~kernel:5 ~stride:1 ~padding:1 ~groups:2
    ~h:5 ~w:3;
  case "two groups 3x3 padding 3 on 2x2" ~channels:4 ~k:4 ~kernel:3 ~stride:1 ~padding:3 ~groups:2
    ~h:2 ~w:2;
  (* a kernel larger than the input: an empty output, nothing read *)
  case "3x3 on 1x1" ~channels:1 ~k:2 ~kernel:3 ~stride:1 ~padding:0 ~groups:1 ~h:1 ~w:1;
  case "7x7 stride 3 on 5x5" ~channels:4 ~k:2 ~kernel:7 ~stride:3 ~padding:0 ~groups:1 ~h:5 ~w:5

(* ---------- lane pairs ---------- *)

let lanes_paired () = List.assoc "exec.lanes_paired" (Unit_obs.Obs.counters ())

(* The quantized conv2d at unit scales, so each stored output is its
   exact integer sum, against [ref_conv2d]'s integer nest, with tracing
   on for [exec.lanes_paired].  [paired] is how many pairs of output
   channels the conv should run together; each pair does
   [2 * oh * ow * cg * kern^2] MACs two per multiply. *)
let pairs_exact what (attrs : Graph.conv2d_attrs) ~paired data weights =
  let data = { Executor.arr = data; scale = 1.0 } in
  let weights = { Executor.arr = weights; scale = 1.0 } in
  let before = lanes_paired () in
  Unit_obs.Obs.set_enabled true;
  let got =
    Fun.protect
      ~finally:(fun () -> Unit_obs.Obs.set_enabled false)
      (fun () -> Executor.apply (Graph.Conv2d attrs) [ data; weights ])
  in
  let expected, _ = ref_conv2d attrs data weights in
  for i = 0 to Ndarray.num_elements expected - 1 do
    let a = Ndarray.get_int_flat got.Executor.arr i and b = Ndarray.get_int_flat expected i in
    if a <> b then Alcotest.failf "%s: output %d is %d, the integer nest gives %d" what i a b
  done;
  let oh, ow, cg =
    match got.Executor.arr.Ndarray.shape, data.Executor.arr.Ndarray.shape with
    | [| _; oh; ow |], [| c; _; _ |] -> (oh, ow, c / attrs.Graph.groups)
    | _ -> Alcotest.failf "%s: unexpected shapes" what
  in
  let kk = attrs.Graph.kernel * attrs.Graph.kernel in
  check_int (what ^ ": exec.lanes_paired")
    (2 * paired * oh * ow * cg * kk)
    (lanes_paired () - before)

(* Random operands over each data dtype's whole range, on arena views,
   through every shape the paired nest treats apart: odd [k], groups of
   odd [kg] (the last channel of each runs alone), depthwise ([kg = 1],
   never paired), both strides, paddings 0 to 3, 1x1, 3x3 and 7x7
   kernels, channel blocks, tap blocks and single taps, and 2x2 inputs
   at padding 1. *)
let test_lane_pairs_exact () =
  let st = Random.State.make [| 29 |] in
  let case ~channels ~k ~kernel ~stride ~padding ~groups ~h ~w data_dtype =
    let attrs = { Graph.out_channels = k; kernel; stride; padding; groups } in
    let lo = Int64.to_int (Dtype.min_int_value data_dtype) in
    let span = Int64.to_int (Dtype.max_int_value data_dtype) - lo + 1 in
    let draw lo span _ = Float.of_int (lo + Random.State.int st span) in
    let data =
      arena_view ~offset:(1 + Random.State.int st 9) ~dtype:data_dtype
        ~shape:[ channels; h; w ] (draw lo span)
    in
    let weights =
      arena_view ~offset:(1 + Random.State.int st 9) ~dtype:Dtype.I8
        ~shape:[ k; channels / groups; kernel; kernel ]
        (draw (-128) 256)
    in
    let kg = k / groups in
    pairs_exact
      (Printf.sprintf "%s: %d channels, k %d, %dx%d stride %d padding %d, %d groups on %dx%d"
         (Dtype.to_string data_dtype) channels k kernel kernel stride padding groups h w)
      attrs ~paired:(groups * (kg / 2)) data weights
  in
  List.iter
    (fun dtype ->
      case ~channels:4 ~k:5 ~kernel:1 ~stride:1 ~padding:0 ~groups:1 ~h:3 ~w:4 dtype;
      case ~channels:6 ~k:6 ~kernel:3 ~stride:1 ~padding:1 ~groups:2 ~h:5 ~w:5 dtype;
      case ~channels:8 ~k:12 ~kernel:3 ~stride:2 ~padding:1 ~groups:4 ~h:7 ~w:6 dtype;
      case ~channels:6 ~k:6 ~kernel:3 ~stride:2 ~padding:1 ~groups:6 ~h:6 ~w:5 dtype;
      case ~channels:3 ~k:5 ~kernel:7 ~stride:2 ~padding:3 ~groups:1 ~h:11 ~w:9 dtype;
      case ~channels:9 ~k:4 ~kernel:3 ~stride:1 ~padding:1 ~groups:1 ~h:2 ~w:2 dtype;
      case ~channels:2 ~k:3 ~kernel:3 ~stride:1 ~padding:1 ~groups:1 ~h:2 ~w:2 dtype;
      for padding = 0 to 3 do
        case ~channels:5 ~k:4 ~kernel:3 ~stride:2 ~padding ~groups:1 ~h:6 ~w:7 dtype;
        case ~channels:2 ~k:2 ~kernel:7 ~stride:1 ~padding ~groups:1 ~h:8 ~w:7 dtype
      done)
    [ Dtype.U8; Dtype.I8 ]

(* Extreme operands at the bound: data at the value of its dtype's
   largest magnitude and every weight -128 (or the pair's high channel
   at 127).  A pair runs while [cg * kern^2 * maxabs * 128 < 2^30]: for
   U8 (maxabs 255) 32896 channels pair, their sums within 16384 of
   -2^30, and 32897 do not; for I8 (maxabs 128) 65535 channels pair,
   their sums 16384 below 2^30, and 65536 channels, whose sums reach
   2^30, do not.  Unpaired, every sum is still exact. *)
let test_lane_pairs_bound () =
  let case data_dtype ~data_value ~channels ~high ~paired =
    let attrs = { Graph.out_channels = 2; kernel = 1; stride = 1; padding = 0; groups = 1 } in
    let data =
      arena_view ~offset:3 ~dtype:data_dtype ~shape:[ channels; 1; 2 ] (fun _ ->
          Float.of_int data_value)
    in
    let weights =
      arena_view ~offset:5 ~dtype:Dtype.I8 ~shape:[ 2; channels; 1; 1 ] (fun idx ->
          if idx.(0) = 0 then -128.0 else Float.of_int high)
    in
    pairs_exact
      (Printf.sprintf "%s data %d, %d channels, high weight %d" (Dtype.to_string data_dtype)
         data_value channels high)
      attrs
      ~paired:(if paired then 1 else 0)
      data weights
  in
  List.iter
    (fun high ->
      case Dtype.U8 ~data_value:255 ~channels:32896 ~high ~paired:true;
      case Dtype.U8 ~data_value:255 ~channels:32897 ~high ~paired:false;
      case Dtype.I8 ~data_value:(-128) ~channels:65535 ~high ~paired:true;
      case Dtype.I8 ~data_value:(-128) ~channels:65536 ~high ~paired:false;
      case Dtype.I8 ~data_value:127 ~channels:65535 ~high ~paired:true)
    [ -128; 127 ]

(* ---------- the panel kernel ---------- *)

let panel_macs () = List.assoc "exec.panel_macs" (Unit_obs.Obs.counters ())

(* [pairs_exact], and every MAC of the conv counted by [exec.panel_macs]:
   its groups hold at least two output channels each. *)
let panel_exact what (attrs : Graph.conv2d_attrs) ~paired data weights =
  let before = panel_macs () in
  pairs_exact what attrs ~paired data weights;
  let kern = attrs.Graph.kernel and stride = attrs.Graph.stride in
  let padding = attrs.Graph.padding in
  let c, h, w =
    match data.Ndarray.shape with
    | [| c; h; w |] -> (c, h, w)
    | _ -> Alcotest.failf "%s: unexpected shapes" what
  in
  let oh = Graph.conv_out_dim ~size:h ~kernel:kern ~stride ~padding in
  let ow = Graph.conv_out_dim ~size:w ~kernel:kern ~stride ~padding in
  check_int (what ^ ": exec.panel_macs")
    (attrs.Graph.out_channels * oh * ow * (c / attrs.Graph.groups) * kern * kern)
    (panel_macs () - before)

(* The panel kernel at unit scales against the integer nest, on random
   operands over each data dtype's whole range, read through arena views
   at nonzero offsets: planes of fewer than four positions and planes
   with a partial last block of four; odd [k] and odd [kg], whose last
   channel runs alone; two and four groups, one panel each; 1x1 stride-1
   convs read in place, including planes that are no multiple of four
   (an overlapping last block) and grouped ones; 3x3 at 2x2 and 4x4 with
   padding 1, where most panel entries are zero, and at padding 3, where
   some positions see no input at all; planes gathered in several chunks,
   the last one short.  Then both sides of the pair bound, paneled and
   in place: data at 255 and weights at -128, the pair's high channel at
   -128 or 127. *)
let test_panel_exact () =
  let st = Random.State.make [| 37 |] in
  let case what ~channels ~k ~kernel ~stride ~padding ~groups ~h ~w data_dtype =
    let attrs = { Graph.out_channels = k; kernel; stride; padding; groups } in
    let draw lo span _ = Float.of_int (lo + Random.State.int st span) in
    let lo = Int64.to_int (Dtype.min_int_value data_dtype) in
    let span = Int64.to_int (Dtype.max_int_value data_dtype) - lo + 1 in
    let data =
      arena_view ~offset:(1 + Random.State.int st 9) ~dtype:data_dtype
        ~shape:[ channels; h; w ] (draw lo span)
    in
    let weights =
      arena_view ~offset:(1 + Random.State.int st 9) ~dtype:Dtype.I8
        ~shape:[ k; channels / groups; kernel; kernel ]
        (draw (-128) 256)
    in
    panel_exact
      (Printf.sprintf "%s: %s %d channels, k %d, %dx%d stride %d padding %d, %d groups on %dx%d"
         what (Dtype.to_string data_dtype) channels k kernel kernel stride padding groups h w)
      attrs
      ~paired:(groups * (k / groups / 2))
      data weights
  in
  List.iter
    (fun dtype ->
      case "short plane" ~channels:3 ~k:4 ~kernel:3 ~stride:1 ~padding:1 ~groups:1 ~h:1 ~w:3 dtype;
      case "tail block" ~channels:5 ~k:5 ~kernel:3 ~stride:1 ~padding:1 ~groups:1 ~h:3 ~w:3 dtype;
      case "tail block, stride 2" ~channels:4 ~k:7 ~kernel:3 ~stride:2 ~padding:1 ~groups:1 ~h:9
        ~w:10 dtype;
      case "7x7 stem" ~channels:3 ~k:6 ~kernel:7 ~stride:2 ~padding:3 ~groups:1 ~h:6 ~w:4 dtype;
      case "two groups" ~channels:6 ~k:6 ~kernel:3 ~stride:1 ~padding:1 ~groups:2 ~h:5 ~w:3 dtype;
      case "four groups" ~channels:8 ~k:8 ~kernel:3 ~stride:2 ~padding:0 ~groups:4 ~h:7 ~w:9 dtype;
      case "four groups, odd kg" ~channels:4 ~k:12 ~kernel:1 ~stride:2 ~padding:1 ~groups:4 ~h:5
        ~w:5 dtype;
      case "in place, 2x2" ~channels:9 ~k:4 ~kernel:1 ~stride:1 ~padding:0 ~groups:1 ~h:2 ~w:2
        dtype;
      case "in place, overlapping block" ~channels:7 ~k:5 ~kernel:1 ~stride:1 ~padding:0 ~groups:1
        ~h:5 ~w:5 dtype;
      case "in place, 3x2" ~channels:2 ~k:3 ~kernel:1 ~stride:1 ~padding:0 ~groups:1 ~h:3 ~w:2
        dtype;
      case "in place, two groups" ~channels:6 ~k:10 ~kernel:1 ~stride:1 ~padding:0 ~groups:2 ~h:3
        ~w:3 dtype;
      case "1x1 under four positions" ~channels:5 ~k:3 ~kernel:1 ~stride:1 ~padding:0 ~groups:1
        ~h:1 ~w:3 dtype;
      case "3x3 at 2x2" ~channels:16 ~k:9 ~kernel:3 ~stride:1 ~padding:1 ~groups:1 ~h:2 ~w:2 dtype;
      case "3x3 at 4x4" ~channels:8 ~k:6 ~kernel:3 ~stride:1 ~padding:1 ~groups:1 ~h:4 ~w:4 dtype;
      case "3x3 at 2x2, padding 3" ~channels:3 ~k:2 ~kernel:3 ~stride:1 ~padding:3 ~groups:1 ~h:2
        ~w:2 dtype;
      (* panels of at most 3 * 2^14 ints: chunks of 4 positions (9216
         terms), and of 16 (2700 terms) with a last chunk of one *)
      case "chunks of four" ~channels:1024 ~k:3 ~kernel:3 ~stride:1 ~padding:1 ~groups:1 ~h:3
        ~w:5 dtype;
      case "chunks of sixteen" ~channels:600 ~k:4 ~kernel:3 ~stride:1 ~padding:1 ~groups:2 ~h:7
        ~w:7 dtype)
    [ Dtype.U8; Dtype.I8 ];
  (* [cg * kern^2 * 255 * 128 < 2^30]: 32896 terms pair, 32897 do not *)
  List.iter
    (fun high ->
      List.iter
        (fun (what, channels, kernel, padding, paired) ->
          let attrs = { Graph.out_channels = 2; kernel; stride = 1; padding; groups = 1 } in
          let data =
            arena_view ~offset:3 ~dtype:Dtype.U8 ~shape:[ channels; 2; 2 ] (fun _ -> 255.0)
          in
          let weights =
            arena_view ~offset:5 ~dtype:Dtype.I8 ~shape:[ 2; channels; kernel; kernel ] (fun idx ->
                if idx.(0) = 0 then -128.0 else Float.of_int high)
          in
          panel_exact
            (Printf.sprintf "%s: %d channels, high weight %d" what channels high)
            attrs ~paired data weights)
        [ ("bound, in place", 32896, 1, 0, 1); ("past the bound, in place", 32897, 1, 0, 0);
          ("bound, 3x3", 3655, 3, 1, 1); ("past the bound, 3x3", 3656, 3, 1, 0)
        ])
    [ -128; 127 ]

(* Two domains run quantized convs of different shapes (one paneled, one
   read in place) at the same time, over and over: each result must stay
   the integer nest's, so no two convs share scratch. *)
let test_panel_concurrent () =
  let st = Random.State.make [| 41 |] in
  let operands ~channels ~k ~kernel ~padding ~h ~w =
    let attrs = { Graph.out_channels = k; kernel; stride = 1; padding; groups = 1 } in
    let value shape lo span =
      { Executor.arr =
          arena_view ~offset:(1 + Random.State.int st 9)
            ~dtype:(if lo < 0 then Dtype.I8 else Dtype.U8)
            ~shape
            (fun _ -> Float.of_int (lo + Random.State.int st span));
        scale = 1.0
      }
    in
    let data = value [ channels; h; w ] 0 256 in
    let weights = value [ k; channels; kernel; kernel ] (-128) 256 in
    let expected, _ = ref_conv2d attrs data weights in
    (attrs, data, weights, expected)
  in
  let jobs =
    [ operands ~channels:24 ~k:16 ~kernel:3 ~padding:1 ~h:10 ~w:9;
      operands ~channels:40 ~k:12 ~kernel:1 ~padding:0 ~h:7 ~w:11
    ]
  in
  let exact (attrs, data, weights, expected) =
    let ok = ref true in
    for _ = 1 to 200 do
      let got = Executor.apply (Graph.Conv2d attrs) [ data; weights ] in
      if not (Ndarray.equal got.Executor.arr expected) then ok := false
    done;
    !ok
  in
  List.iteri
    (fun i ok -> check_bool (Printf.sprintf "domain %d: every conv exact" i) true ok)
    (Unit_codegen.Parallel_oracle.map ~domains:2 exact jobs)

(* ---------- integer requantization ---------- *)

let requant_int () = List.assoc "exec.requant_int" (Unit_obs.Obs.counters ())

(* [stages] applied one by one, each stored, on the I32 tensor a conv2d
   stored its sums [accs] in before the integer store:
   [saturate (of_int v *. s0 /. s0)] per element, the store
   [Ndarray.fill_float] makes. *)
let requant_reference ~accs ~shape ~s0 stages =
  let base =
    { Executor.arr =
        Ndarray.init_float ~dtype:Dtype.I32 ~shape (fun idx ->
            let flat =
              List.fold_left (fun acc (i, d) -> (acc * d) + i) 0
                (List.combine (Array.to_list idx) shape)
            in
            Float.of_int accs.(flat) *. s0 /. s0);
      scale = s0
    }
  in
  List.fold_left (fun v (kind, extras) -> Executor.apply kind (v :: extras)) base stages

(* The integer store of a fused quantized conv2d against the float chain
   it replaces, output by output: U8 and I8 outputs; bias then quantize,
   with relu, clip or both between, and a clip to one real value (a
   constant output, no thresholds); sums 0, +-1, +-2^30, +-(2^31 - 1),
   beyond i32 and near far thresholds; biases whose [b / s0] is a
   half-integer, or just inside or just outside 2^-16 of one, or too
   large for i32, so the float step runs for some channels; an i32 bias;
   accumulator scales from 2^-30 to 2^10 at several output slopes.  Then
   in place: fused conv graphs with lane pairs and a lone channel, on U8
   and I8 data, against their unfused form, every output counted by
   [exec.requant_int]. *)
let test_requant_exact () =
  let st = Random.State.make [| 31 |] in
  let far = List.concat_map (fun m -> [ (m * (1 lsl 23)) - 1; m * (1 lsl 23); (m * (1 lsl 23)) + 1 ]) [ 1; 3; 255 ] in
  let edges =
    [ 0; 1; 2; 1 lsl 30; (1 lsl 31) - 1; (1 lsl 31) - 2; 1 lsl 31; (1 lsl 31) + 1; 1 lsl 40;
      (1 lsl 31) + (1 lsl 24) ]
  in
  let accs =
    List.init 601 (fun i -> i - 300)
    @ List.concat_map (fun v -> [ v; -v ]) (edges @ far)
    @ List.init 100 (fun _ -> Random.State.full_int st (1 lsl 34) - (1 lsl 33))
  in
  let na = List.length accs in
  let half = [ 0.5; -0.5; 2.5; -7.5 ] in
  let betas =
    [ 0.0; 37.3; -1234.56; 1e-3; Float.ldexp 1.0 24; -.Float.ldexp 1.0 24; 2147483651.0;
      -2147483651.0 ]
    @ half
    @ List.concat_map (fun h -> [ h +. 0x1p-20; h -. 0x1p-20; h +. 0x1p-10; h -. 0x1p-10 ]) half
  in
  let nb = List.length betas in
  let shape = [ nb; 1; na ] in
  let accs = Array.concat (List.init nb (fun _ -> Array.of_list accs)) in
  let count = ref 0 in
  List.iter
    (fun s0 ->
      let f32_bias =
        { Executor.arr =
            Ndarray.init_float ~dtype:Dtype.F32 ~shape:[ nb ] (fun idx ->
                List.nth betas idx.(0) *. s0);
          scale = 1.0
        }
      in
      let i32_bias =
        { Executor.arr =
            Ndarray.init_float ~dtype:Dtype.I32 ~shape:[ nb ] (fun idx ->
                Float.round (List.nth betas idx.(0)));
          scale = s0
        }
      in
      List.iter
        (fun slope ->
          let sq = s0 /. slope in
          List.iter
            (fun dtype ->
              List.iter
                (fun (chain, bias, tail) ->
                  let stages =
                    ((Graph.Bias_add, [ bias ]) :: List.map (fun k -> (k, [])) tail)
                    @ [ (Graph.Quantize { scale = sq; dtype }, []) ]
                  in
                  let what =
                    Printf.sprintf "%s to %s, s0 %h, slope %g" chain (Dtype.to_string dtype) s0
                      slope
                  in
                  let expected = requant_reference ~accs ~shape ~s0 stages in
                  match Executor.requantize ~accs ~shape ~scale:s0 stages with
                  | None -> Alcotest.failf "%s: not served by the integer store" what
                  | Some got ->
                    incr count;
                    check_bool (what ^ ": dtype") true
                      (Dtype.equal got.Executor.arr.Ndarray.dtype dtype);
                    check_bool (what ^ ": scale") true (got.Executor.scale = sq);
                    for i = 0 to Array.length accs - 1 do
                      let a = Ndarray.get_int_flat got.Executor.arr i in
                      let b = Ndarray.get_int_flat expected.Executor.arr i in
                      if a <> b then
                        Alcotest.failf "%s: sum %d with bias %g stores %d, the chain %d" what
                          accs.(i) (List.nth betas (i / na)) a b
                    done)
                [ ("bias,q", f32_bias, []);
                  ("bias,relu,q", f32_bias, [ Graph.Relu ]);
                  ("bias,clip,q", f32_bias, [ Graph.Clip { lo = -40.0 *. sq; hi = 100.0 *. sq } ]);
                  ( "bias,relu,clip,q",
                    f32_bias,
                    [ Graph.Relu; Graph.Clip { lo = -40.0 *. sq; hi = 100.0 *. sq } ] );
                  ("i32 bias,relu,q", i32_bias, [ Graph.Relu ]);
                  ("bias,clip to one value,q", f32_bias, [ Graph.Clip { lo = 3.3 *. sq; hi = 3.3 *. sq } ])
                ])
            [ Dtype.U8; Dtype.I8 ])
        [ 0x1p-24; 0.37; 1.0; 3.0 ])
    [ 0x1p-30; 1.37 *. 0x1p-12; 0.01; 1.0; 0x1p10 ];
  check_int "chains checked" (5 * 4 * 2 * 6) !count;
  (* a chain the integer store does not serve, and a scale it does not *)
  let bias = { Executor.arr = Ndarray.zeros ~dtype:Dtype.F32 ~shape:[ 1 ]; scale = 1.0 } in
  let q = (Graph.Quantize { scale = 0.1; dtype = Dtype.U8 }, []) in
  check_bool "dequantize tail" true
    (Executor.requantize ~accs:[| 0 |] ~shape:[ 1 ] ~scale:1.0
       [ (Graph.Bias_add, [ bias ]); q; (Graph.Dequantize { scale = 0.1 }, []) ]
    = None);
  check_bool "i32 output" true
    (Executor.requantize ~accs:[| 0 |] ~shape:[ 1 ] ~scale:1.0
       [ (Graph.Bias_add, [ bias ]); (Graph.Quantize { scale = 0.1; dtype = Dtype.I32 }, []) ]
    = None);
  check_bool "scale 2^-901" true
    (Executor.requantize ~accs:[| 0 |] ~shape:[ 1 ] ~scale:0x1p-901 [ (Graph.Bias_add, [ bias ]); q ]
    = None);
  (* in place *)
  List.iter
    (fun (data_dtype, out_dtype, k, tail) ->
      let what =
        Printf.sprintf "%s conv to %s, %d channels, %d stages" (Dtype.to_string data_dtype)
          (Dtype.to_string out_dtype) k (List.length tail)
      in
      let conv = { Graph.out_channels = k; kernel = 3; stride = 1; padding = 1; groups = 1 } in
      let stages =
        (Graph.Bias_add :: tail) @ [ Graph.Quantize { scale = 2.0 /. 255.0; dtype = out_dtype } ]
      in
      let prefix =
        [ ("x", Graph.Input { shape = [ 3; 6; 6 ]; dtype = Dtype.F32 }, [], []);
          ("x_q", Graph.Quantize { scale = 1.0 /. 255.0; dtype = data_dtype }, [ 0 ], []);
          ("w", Graph.Weight { shape = [ k; 3; 3; 3 ]; dtype = Dtype.I8 }, [], []);
          ("b", Graph.Weight { shape = [ k ]; dtype = Dtype.F32 }, [], [])
        ]
      in
      let fused = Graph.build (prefix @ [ ("conv", Graph.Conv2d conv, [ 1; 2; 3 ], stages) ]) ~output:4 in
      let unfused =
        Graph.build
          (prefix
          @ ("conv", Graph.Conv2d conv, [ 1; 2 ], [])
            :: List.mapi
                 (fun i kind ->
                   (Printf.sprintf "stage%d" i, kind, (4 + i) :: (if i = 0 then [ 3 ] else []), []))
                 stages)
          ~output:(4 + List.length stages)
      in
      let input = Executor.default_input fused ~seed:6 in
      let expected = (Executor.run unfused ~input).Executor.arr in
      let before = requant_int () in
      Unit_obs.Obs.set_enabled true;
      let got =
        Fun.protect
          ~finally:(fun () -> Unit_obs.Obs.set_enabled false)
          (fun () -> (Executor.run fused ~input).Executor.arr)
      in
      check_bool (what ^ ": fused = unfused") true (Ndarray.equal expected got);
      check_int (what ^ ": exec.requant_int") (k * 36) (requant_int () - before))
    (List.concat_map
       (fun (data_dtype, out_dtype) ->
         List.concat_map
           (fun k ->
             List.map
               (fun tail -> (data_dtype, out_dtype, k, tail))
               [ []; [ Graph.Relu ]; [ Graph.Clip { lo = -0.5; hi = 0.6 } ];
                 [ Graph.Relu; Graph.Clip { lo = -0.5; hi = 0.6 } ] ])
           [ 4; 5 ])
       [ (Dtype.U8, Dtype.U8); (Dtype.U8, Dtype.I8); (Dtype.I8, Dtype.U8); (Dtype.I8, Dtype.I8) ])

(* ---------- glue ops against the boxed formulation ---------- *)

(* Copies of the boxed code the executor's flat store loop replaced:
   [Ndarray.init_float] over multi-index arrays, reads through
   [flat_index]. *)
let ref_real (v : Executor.value) idx =
  Ndarray.get_float_flat v.Executor.arr (Ndarray.flat_index v.Executor.arr idx) *. v.Executor.scale

let ref_real_flat (v : Executor.value) i = Ndarray.get_float_flat v.Executor.arr i *. v.Executor.scale

let ref_represent ~dtype ~scale ~shape f =
  let g = if Dtype.is_float dtype then f else fun idx -> f idx /. scale in
  { Executor.arr = Ndarray.init_float ~dtype ~shape g;
    scale = (if Dtype.is_float dtype then 1.0 else scale)
  }

let ref_conv3d (attrs : Graph.conv3d_attrs) (data : Executor.value) (weights : Executor.value) =
  let c, d, h, w =
    match data.Executor.arr.Ndarray.shape with
    | [| c; d; h; w |] -> (c, d, h, w)
    | _ -> Alcotest.fail "conv3d data must be rank 4"
  in
  let k = attrs.Graph.c3_out_channels in
  let kern = attrs.Graph.c3_kernel and stride = attrs.Graph.c3_stride in
  let padding = attrs.Graph.c3_padding in
  let dim size = Graph.conv_out_dim ~size ~kernel:kern ~stride ~padding in
  let quantized = Dtype.is_integer data.Executor.arr.Ndarray.dtype in
  let out_dtype = if quantized then Dtype.I32 else Dtype.F32 in
  let out_scale = if quantized then data.Executor.scale *. weights.Executor.scale else 1.0 in
  let darr = data.Executor.arr and warr = weights.Executor.arr in
  let dscale = data.Executor.scale and wscale = weights.Executor.scale in
  ref_represent ~dtype:out_dtype ~scale:out_scale ~shape:[ k; dim d; dim h; dim w ] (fun idx ->
      let ko = idx.(0) and z = idx.(1) and y = idx.(2) and x = idx.(3) in
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
                      +. Ndarray.get_float_flat darr ((((((ci * d) + iz) * h) + iy) * w) + ix)
                         *. dscale
                         *. (Ndarray.get_float_flat warr
                               ((((((((ko * c) + ci) * kern) + q) * kern) + r) * kern) + s)
                            *. wscale)
                done
            done
        done
      done;
      !acc)

let ref_pool pool_kind ~window ~stride ~padding (data : Executor.value) =
  let c, h, w =
    match data.Executor.arr.Ndarray.shape with
    | [| c; h; w |] -> (c, h, w)
    | _ -> Alcotest.fail "pool data must be rank 3"
  in
  let oh = Graph.conv_out_dim ~size:h ~kernel:window ~stride ~padding in
  let ow = Graph.conv_out_dim ~size:w ~kernel:window ~stride ~padding in
  ref_represent ~dtype:data.Executor.arr.Ndarray.dtype ~scale:data.Executor.scale
    ~shape:[ c; oh; ow ] (fun idx ->
      let ch = idx.(0) and y = idx.(1) and x = idx.(2) in
      let acc = ref (match pool_kind with Graph.Max_pool -> Float.neg_infinity | Graph.Avg_pool -> 0.0) in
      let count = ref 0 in
      for r = 0 to window - 1 do
        for s = 0 to window - 1 do
          let iy = (y * stride) + r - padding in
          let ix = (x * stride) + s - padding in
          if iy >= 0 && iy < h && ix >= 0 && ix < w then begin
            let v = ref_real_flat data ((((ch * h) + iy) * w) + ix) in
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

let ref_concat (values : Executor.value list) =
  let first = List.hd values in
  let spatial = List.tl (Array.to_list first.Executor.arr.Ndarray.shape) in
  let channels = List.map (fun (v : Executor.value) -> v.Executor.arr.Ndarray.shape.(0)) values in
  ref_represent ~dtype:first.Executor.arr.Ndarray.dtype ~scale:first.Executor.scale
    ~shape:(List.fold_left ( + ) 0 channels :: spatial) (fun idx ->
      let rec pick ch values channels =
        match values, channels with
        | v :: vs, c :: cs -> if ch < c then (v, ch) else pick (ch - c) vs cs
        | _ -> Alcotest.fail "concat: channel out of range"
      in
      let v, ch = pick idx.(0) values channels in
      let idx' = Array.copy idx in
      idx'.(0) <- ch;
      ref_real v idx')

let ref_softmax (data : Executor.value) =
  let n = Ndarray.num_elements data.Executor.arr in
  let xs = Array.init n (ref_real_flat data) in
  let m = Array.fold_left Float.max Float.neg_infinity xs in
  let exps = Array.map (fun x -> Float.exp (x -. m)) xs in
  let total = Array.fold_left ( +. ) 0.0 exps in
  ref_represent ~dtype:Dtype.F32 ~scale:1.0 ~shape:[ n ] (fun idx -> exps.(idx.(0)) /. total)

(* Every op kind the flat store loop serves that no golden reaches —
   conv3d, softmax, pooling with padding, concat of inputs at different
   scales, dtypes, or one scale (copied) — on operands read through arena
   views, against the boxed formula. *)
let test_glue_matches_boxed () =
  let st = Random.State.make [| 11 |] in
  let value dtype scale shape =
    let draw _ =
      if Dtype.equal dtype Dtype.F32 then Random.State.float st 2.0 -. 1.0
      else if Dtype.equal dtype Dtype.I8 then Float.of_int (Random.State.int st 256 - 128)
      else Float.of_int (Random.State.int st 256)
    in
    { Executor.arr = arena_view ~offset:(1 + Random.State.int st 9) ~dtype ~shape draw; scale }
  in
  let case what kind args (expected : Executor.value) =
    let got = Executor.apply kind args in
    check_bool (what ^ ": dtype") true
      (Dtype.equal got.Executor.arr.Ndarray.dtype expected.Executor.arr.Ndarray.dtype);
    check_bool (what ^ ": scale") true (got.Executor.scale = expected.Executor.scale);
    check_bool (what ^ ": elements") true (Ndarray.equal got.Executor.arr expected.Executor.arr)
  in
  List.iter
    (fun (quantized, stride, padding) ->
      let attrs =
        { Graph.c3_out_channels = 3; c3_kernel = 3; c3_stride = stride; c3_padding = padding }
      in
      let data, weights =
        if quantized then
          (value Dtype.U8 0.013 [ 2; 4; 5; 6 ], value Dtype.I8 0.0071 [ 3; 2; 3; 3; 3 ])
        else (value Dtype.F32 1.0 [ 2; 4; 5; 6 ], value Dtype.F32 1.0 [ 3; 2; 3; 3; 3 ])
      in
      case
        (Printf.sprintf "conv3d %s stride %d padding %d"
           (if quantized then "u8" else "f32")
           stride padding)
        (Graph.Conv3d attrs) [ data; weights ]
        (ref_conv3d attrs data weights))
    [ (true, 1, 1); (true, 2, 0); (false, 1, 1); (false, 2, 2) ];
  List.iter
    (fun (name, data) -> case ("softmax of " ^ name) Graph.Softmax [ data ] (ref_softmax data))
    [ ("f32", value Dtype.F32 1.0 [ 10 ]); ("u8", value Dtype.U8 0.05 [ 7 ]) ];
  (* a max pool over int storage takes integer maxima; the last case has
     windows with no tap inside the input *)
  List.iter
    (fun (pool, window, stride, padding, dtypes) ->
      List.iter
        (fun data ->
          case
            (Printf.sprintf "%s %dx%d stride %d padding %d on %s"
               (match pool with Graph.Max_pool -> "max-pool" | Graph.Avg_pool -> "avg-pool")
               window window stride padding
               (Dtype.to_string data.Executor.arr.Ndarray.dtype))
            (Graph.Pool { pool; window; stride; padding })
            [ data ]
            (ref_pool pool ~window ~stride ~padding data))
        (List.map
           (fun (dtype, scale) -> value dtype scale [ 3; 5; 6 ])
           ((Dtype.U8, 0.02) :: (Dtype.F32, 1.0) :: dtypes)))
    [ (Graph.Avg_pool, 3, 2, 1, []); (Graph.Avg_pool, 3, 1, 1, []); (Graph.Avg_pool, 2, 2, 1, []);
      (Graph.Max_pool, 3, 2, 1, [ (Dtype.I8, 0.7) ]); (Graph.Max_pool, 2, 2, 1, [ (Dtype.I8, 0.03) ]);
      (Graph.Max_pool, 3, 1, 2, [ (Dtype.I8, 0.03) ]);
      (Graph.Max_pool, 2, 3, 2, [ (Dtype.I8, 0.03); (Dtype.I8, 1e307) ])
    ];
  List.iter
    (fun (what, values) -> case what Graph.Concat values (ref_concat values))
    [ ( "concat of u8 at three scales",
        [ value Dtype.U8 0.01 [ 2; 3; 3 ]; value Dtype.U8 0.03 [ 3; 3; 3 ];
          value Dtype.U8 0.005 [ 1; 3; 3 ] ] );
      (* inputs at the output's dtype and scale are copied as stored *)
      ( "concat of u8 at one scale",
        [ value Dtype.U8 0.02 [ 2; 3; 3 ]; value Dtype.U8 0.02 [ 1; 3; 3 ];
          value Dtype.U8 0.02 [ 3; 3; 3 ] ] );
      ( "concat of u8, the first and last at one scale",
        [ value Dtype.U8 0.02 [ 2; 3; 3 ]; value Dtype.U8 0.03 [ 1; 3; 3 ];
          value Dtype.U8 0.02 [ 3; 3; 3 ] ] );
      ("concat of i8 at one scale", [ value Dtype.I8 0.7 [ 2; 4 ]; value Dtype.I8 0.7 [ 3; 4 ] ]);
      ("concat of u8 and i8 at one scale", [ value Dtype.U8 0.02 [ 2; 4 ]; value Dtype.I8 0.02 [ 3; 4 ] ]);
      ("concat of f32", [ value Dtype.F32 1.0 [ 1; 2; 4 ]; value Dtype.F32 1.0 [ 2; 2; 4 ] ])
    ]

(* [apply] bypasses [Graph.build], so it checks conv2d and dense operand
   shapes against the attributes itself, and elementwise and concat
   operands against each other. *)
let test_apply_rejects_bad_shapes () =
  let value dtype shape =
    { Executor.arr = Ndarray.zeros ~dtype ~shape;
      scale = (if Dtype.is_float dtype then 1.0 else 0.01)
    }
  in
  let conv ?(groups = 1) ~k ~kernel data_dtype weight_dtype wshape =
    ( Graph.Conv2d { Graph.out_channels = k; kernel; stride = 1; padding = 0; groups },
      [ value data_dtype [ 4; 5; 5 ]; value weight_dtype wshape ] )
  in
  List.iter
    (fun (what, (kind, args)) ->
      match Executor.apply kind args with
      | exception Executor.Exec_error _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [ ("i8 3x3 weights on a 1x1 conv", conv ~k:2 ~kernel:1 Dtype.U8 Dtype.I8 [ 2; 4; 3; 3 ]);
      ("f32 3x3 weights on a 1x1 conv", conv ~k:2 ~kernel:1 Dtype.F32 Dtype.F32 [ 2; 4; 3; 3 ]);
      ( "3 groups on 4 channels",
        conv ~groups:3 ~k:3 ~kernel:1 Dtype.U8 Dtype.I8 [ 3; 1; 1; 1 ] );
      ("3 output channels, 2 weights", conv ~k:3 ~kernel:1 Dtype.F32 Dtype.F32 [ 2; 4; 1; 1 ]);
      ( "i8 conv at padding -1",
        ( Graph.Conv2d { Graph.out_channels = 2; kernel = 3; stride = 1; padding = -1; groups = 1 },
          [ value Dtype.U8 [ 4; 5; 5 ]; value Dtype.I8 [ 2; 4; 3; 3 ] ] ) );
      ( "f32 conv at padding -1",
        ( Graph.Conv2d { Graph.out_channels = 2; kernel = 3; stride = 1; padding = -1; groups = 1 },
          [ value Dtype.F32 [ 4; 5; 5 ]; value Dtype.F32 [ 2; 4; 3; 3 ] ] ) );
      ( "dense weights of the wrong width",
        (Graph.Dense { units = 2 }, [ value Dtype.F32 [ 4 ]; value Dtype.F32 [ 2; 3 ] ]) );
      (* elementwise and concat reads are flat, so a mismatched operand
         would read past its own elements (or a neighbour's in an arena) *)
      ( "add of a larger second operand",
        (Graph.Add, [ value Dtype.U8 [ 2; 3; 3 ]; value Dtype.U8 [ 2; 4; 4 ] ]) );
      ( "add of a smaller second operand",
        (Graph.Add, [ value Dtype.U8 [ 2; 3; 3 ]; value Dtype.U8 [ 2; 2; 2 ] ]) );
      ( "add of a transposed second operand",
        (Graph.Add, [ value Dtype.F32 [ 2; 3 ]; value Dtype.F32 [ 3; 2 ] ]) );
      ( "bias with one element too few",
        (Graph.Bias_add, [ value Dtype.I32 [ 4; 3; 3 ]; value Dtype.F32 [ 3 ] ]) );
      ( "bias with one element too many",
        (Graph.Bias_add, [ value Dtype.I32 [ 4; 3; 3 ]; value Dtype.F32 [ 5 ] ]) );
      ( "rank-2 bias",
        (Graph.Bias_add, [ value Dtype.I32 [ 4; 3; 3 ]; value Dtype.F32 [ 4; 1 ] ]) );
      ( "concat of larger trailing dims",
        (Graph.Concat, [ value Dtype.U8 [ 2; 3; 3 ]; value Dtype.U8 [ 2; 4; 4 ] ]) );
      ( "concat of smaller trailing dims",
        (Graph.Concat, [ value Dtype.U8 [ 2; 3; 3 ]; value Dtype.U8 [ 1; 2; 2 ] ]) );
      ( "concat of a different rank",
        (Graph.Concat, [ value Dtype.F32 [ 2; 3; 3 ]; value Dtype.F32 [ 2; 9 ] ]) )
    ]

let quantized_zoo_model name =
  match Unit_models.Zoo.find name with
  | Some build -> Passes.fuse (Passes.quantize_structural ~act_dtype:Dtype.U8 (build ()))
  | None -> Alcotest.failf "no zoo model %s" name

(* The first six weights and the last two of resnet18 and mobilenet1.0:
   a 7x7 stem, 3x3, 1x1 and depthwise taps, the classifier and f32
   biases, each pinned element by element against the boxed synthesis +
   fold + quantize formulation. *)
let test_weights_match_boxed () =
  List.iter
    (fun model ->
      let g = quantized_zoo_model model in
      let weights =
        List.filter_map
          (fun (n : Graph.node) ->
            match n.Graph.kind with
            | Graph.Weight { shape; dtype } -> Some (n, shape, dtype)
            | _ -> None)
          (Graph.nodes g)
      in
      let count = List.length weights in
      List.iteri
        (fun i ((node : Graph.node), shape, dtype) ->
          if i < 6 || i >= count - 2 then begin
            let what = model ^ "/" ^ node.Graph.name in
            let got = Executor.weight_value node shape dtype in
            let expected, scale = ref_weight_value node shape dtype in
            check_bool (what ^ ": scale") true (got.Executor.scale = scale);
            check_bool (what ^ ": dtype") true
              (Dtype.equal got.Executor.arr.Ndarray.dtype expected.Ndarray.dtype);
            check_int (what ^ ": elements") (Ndarray.num_elements expected)
              (Ndarray.num_elements got.Executor.arr);
            for j = 0 to Ndarray.num_elements expected - 1 do
              let a = Ndarray.get_flat got.Executor.arr j and b = Ndarray.get_flat expected j in
              if a <> b then
                Alcotest.failf "%s: element %d is %s, boxed formula gives %s" what j
                  (Value.to_string a) (Value.to_string b)
            done;
            (* the graph's prepared form of an i8 weight: one byte each *)
            match Executor.packed_weight g node.Graph.id with
            | None ->
              check_bool (what ^ ": only i8 weights are packed") false
                (Dtype.equal dtype Dtype.I8)
            | Some bytes ->
              check_bool (what ^ ": packed weight is i8") true (Dtype.equal dtype Dtype.I8);
              check_int (what ^ ": packed bytes") (Ndarray.num_elements expected)
                (Bytes.length bytes);
              for j = 0 to Bytes.length bytes - 1 do
                if Bytes.get_int8 bytes j <> Ndarray.get_int_flat got.Executor.arr j then
                  Alcotest.failf "%s: packed byte %d is %d, weight_value gives %d" what j
                    (Bytes.get_int8 bytes j)
                    (Ndarray.get_int_flat got.Executor.arr j)
              done
          end)
        weights)
    [ "resnet18"; "mobilenet1.0" ]

(* The benchmark's goldens: each U8-quantized, fused zoo model on the
   seed-1 [hw]x[hw] input reproduces the reference digest recorded in
   benchmark/expected/models.json. *)
let golden_digest ?(hw = 16) model =
  let json = In_channel.with_open_bin "../benchmark/expected/models.json" In_channel.input_all in
  let member k j = Option.bind j (Unit_obs.Json.member k) in
  match
    Some (Result.get_ok (Unit_obs.Json.parse json))
    |> member "digests" |> member (string_of_int hw) |> member model
  with
  | Some (Unit_obs.Json.Str d) -> d
  | _ -> Alcotest.failf "no %dx%d %s digest in models.json" hw hw model

let digest_of (v : Executor.value) = Ndarray.digest v.Executor.arr

(* squeezenet's smoke-scale golden digest, pinned here beside
   models.json's. *)
let squeezenet_golden = "9d58b4eb4d86f51bd491b39980ec89f9"

(* A model's smoke-scale input size and golden digest. *)
let smoke_golden model =
  if model = "squeezenet" then (squeezenet_hw, squeezenet_golden) else (16, golden_digest model)

(* At the smoke scale: on the run that prepares the weights, then
   through the arena plan and plan-less on the prepared weights.  An
   output of one distinct value fails: its digest would pin a
   constant. *)
let test_golden model () =
  let hw, golden = smoke_golden model in
  let g = quantized_zoo_model model in
  let plan = Unit_analysis.Arena.(exec_plan (plan g)) in
  let input = golden_input ~hw () in
  let check what v =
    let what = Printf.sprintf "%s %dx%d, %s" model hw hw what in
    check_bool (what ^ ": more than one distinct value") true (distinct_values v > 1);
    Alcotest.(check string) (what ^ ": digest") golden (digest_of v)
  in
  check "preparing run" (Executor.run ~plan g ~input);
  check "planned" (Executor.run ~plan g ~input);
  check "plan-less" (Executor.run g ~input)

(* At the benchmark's size, once, on the path the models workload times:
   [run ~plan] with the checked arena plan. *)
let test_golden_64 model () =
  let g = quantized_zoo_model model in
  let plan = Unit_analysis.Arena.plan g in
  check_int (model ^ ": arena plan diagnostics") 0
    (List.length (Unit_analysis.Arena.check g plan));
  let input = golden_input ~hw:64 () in
  let out = Executor.run ~plan:(Unit_analysis.Arena.exec_plan plan) g ~input in
  Alcotest.(check string) (model ^ " 64x64 digest") (golden_digest ~hw:64 model) (digest_of out)

let weights_prepared () = List.assoc "exec.weights_prepared" (Unit_obs.Obs.counters ())
let macs () = List.assoc "exec.macs" (Unit_obs.Obs.counters ())

(* [exec.macs] counts k x oh x ow x (c / groups) x kern^2 per conv2d
   while tracing is on, and nothing while it is off. *)
let test_macs_counted () =
  let b = B.create () in
  let x = B.input b ~shape:[ 4; 8; 8 ] Dtype.F32 in
  let y = B.conv2d b ~channels:6 ~kernel:3 ~padding:1 x in
  let g = B.finish b (B.conv2d b ~groups:2 ~channels:4 ~kernel:1 ~stride:2 y) in
  let input = Executor.default_input g ~seed:1 in
  let expected = (6 * 8 * 8 * 4 * 9) + (4 * 4 * 4 * 3 * 1) in
  let traced =
    let before = macs () in
    Unit_obs.Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Unit_obs.Obs.set_enabled false)
      (fun () -> ignore (Executor.run g ~input));
    macs () - before
  in
  check_int "traced run" expected traced;
  let before = macs () in
  ignore (Executor.run g ~input);
  check_int "untraced run" 0 (macs () - before)

(* The first run of a graph synthesizes each weight once; the second
   synthesizes nothing and gives the same digest. *)
let test_weights_prepared_once () =
  let g = quantized_zoo_model "squeezenet" in
  let count = Passes.count_kind g (function Graph.Weight _ -> true | _ -> false) in
  let input = golden_input ~hw:squeezenet_hw () in
  let before = weights_prepared () in
  let first = digest_of (Executor.run g ~input) in
  check_int "first run prepares every weight" count (weights_prepared () - before);
  let second = digest_of (Executor.run g ~input) in
  check_int "second run prepares nothing" count (weights_prepared () - before);
  Alcotest.(check string) "same digest" first second

(* [run] never hands out prepared storage: mutating a weight output
   changes nothing the next run sees, for an f32 and a packed i8
   weight. *)
let test_weight_output_is_a_copy () =
  List.iter
    (fun dtype ->
      let g =
        Graph.build
          [ ("x", Graph.Input { shape = [ 4 ]; dtype = Dtype.F32 }, [], []);
            ("w", Graph.Weight { shape = [ 4; 3 ]; dtype }, [], [])
          ]
          ~output:1
      in
      let input = Ndarray.zeros ~dtype:Dtype.F32 ~shape:[ 4 ] in
      let out = (Executor.run g ~input).Executor.arr in
      let before = Ndarray.digest out in
      for i = 0 to Ndarray.num_elements out - 1 do
        Ndarray.set_flat out i (Value.one dtype)
      done;
      Alcotest.(check string)
        (Dtype.to_string dtype ^ " weight output unchanged by mutation")
        before
        (digest_of (Executor.run g ~input)))
    [ Dtype.F32; Dtype.I8 ]

(* Two domains running one fresh graph at once — racing to prepare the
   same weights — both reproduce the golden digest. *)
let test_concurrent_first_runs () =
  let g = quantized_zoo_model "squeezenet" in
  let input = golden_input ~hw:squeezenet_hw () in
  List.iter
    (fun d ->
      Alcotest.(check string) "squeezenet digest from a racing domain" squeezenet_golden d)
    (Unit_codegen.Parallel_oracle.map ~domains:2
       (fun () -> digest_of (Executor.run g ~input))
       [ (); () ])

let () =
  Alcotest.run "graph"
    [ ( "construction",
        [ Alcotest.test_case "shapes" `Quick test_shapes;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "conv_out_dim" `Quick test_conv_out_dim
        ] );
      ( "executor",
        [ Alcotest.test_case "deterministic fp32" `Quick
            test_fp32_execution_deterministic;
          Alcotest.test_case "weights match boxed synthesis" `Quick
            test_weights_match_boxed;
          Alcotest.test_case "resnet18 golden digest" `Quick (test_golden "resnet18");
          Alcotest.test_case "mobilenet1.0 golden digest" `Quick (test_golden "mobilenet1.0");
          Alcotest.test_case "squeezenet golden digest" `Quick (test_golden "squeezenet");
          Alcotest.test_case "resnet18 64x64 golden digest" `Quick (test_golden_64 "resnet18");
          Alcotest.test_case "mobilenet1.0 64x64 golden digest" `Quick
            (test_golden_64 "mobilenet1.0");
          Alcotest.test_case "squeezenet 64x64 golden digest" `Quick
            (test_golden_64 "squeezenet");
          Alcotest.test_case "weights prepared once" `Quick test_weights_prepared_once;
          Alcotest.test_case "weight output is a copy" `Quick test_weight_output_is_a_copy;
          Alcotest.test_case "concurrent first runs" `Quick test_concurrent_first_runs;
          Alcotest.test_case "macs counted when traced" `Quick test_macs_counted;
          Alcotest.test_case "apply rejects bad shapes" `Quick test_apply_rejects_bad_shapes;
          Alcotest.test_case "conv2d pinned shapes" `Quick test_conv2d_pinned_shapes;
          Alcotest.test_case "glue ops match boxed formula" `Quick test_glue_matches_boxed;
          Alcotest.test_case "conv2d lane pairs exact" `Quick test_lane_pairs_exact;
          Alcotest.test_case "conv2d lane-pair bound" `Quick test_lane_pairs_bound;
          Alcotest.test_case "conv2d panel kernel exact" `Quick test_panel_exact;
          Alcotest.test_case "conv2d panel kernel concurrent" `Quick test_panel_concurrent;
          Alcotest.test_case "fused requantization exact" `Quick test_requant_exact;
          QCheck_alcotest.to_alcotest prop_conv2d_matches_boxed
        ] );
      ( "quantization",
        [ Alcotest.test_case "tracks fp32" `Quick test_quantized_tracks_fp32;
          Alcotest.test_case "structure" `Quick test_quantize_structure;
          Alcotest.test_case "arm i8 variant" `Quick test_quantize_arm_i8
        ] );
      ( "fusion",
        [ Alcotest.test_case "numerics preserved" `Quick test_fusion_preserves_numerics;
          Alcotest.test_case "epilogues folded" `Quick test_fusion_folds_epilogues;
          Alcotest.test_case "calibrate sees epilogues" `Quick test_calibrate_fused
        ] );
      ( "workloads",
        [ Alcotest.test_case "extraction" `Quick test_workload_extraction;
          Alcotest.test_case "padding" `Quick test_workload_padding;
          Alcotest.test_case "depthwise rejected" `Quick
            test_depthwise_workload_rejected_for_tensorization
        ] )
    ]
