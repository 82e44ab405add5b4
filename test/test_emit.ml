(* Engine-differential tests for the native-emission engine: the
   emitted kernel must be bit-identical to both the tree-walking
   interpreter and the closure engine, across hand-built IR, the full
   tensorization pipeline on all three ISAs, and arena-backed views. *)

open Unit_dtype
open Unit_dsl
open Unit_tir
open Unit_isa
open Unit_codegen
module Pipeline = Unit_core.Pipeline
module Workload = Unit_graph.Workload
module Spec = Unit_machine.Spec
module Cpu_tuner = Unit_rewriter.Cpu_tuner

let () = Defs.ensure_registered ()

let check_bool = Alcotest.(check bool)

let emit_available =
  match Emit_cache.available () with
  | Ok () -> true
  | Error reason ->
    Printf.eprintf
      "NOTE: emitted engine unavailable (%s); differential tests exercise \
       the fallback path only\n\
       %!"
      reason;
    false

(* Run one func through all three engines on identical random inputs;
   outputs must be bit-identical (Ndarray.equal: NaN = NaN, -0. <> 0.).
   When the toolchain is unavailable Emit_cache.run falls back
   internally, so the comparison still holds — it just stops being a
   differential.  Otherwise the kernel must run emitted unless
   [~emitted:false]: a fallback would hide a miscompiled rendering.
   The output starts at zeros, or at random values with [~prefill]. *)
let differential ?(seed = 42) ?(emitted = true) ?(prefill = false) (func : Lower.func) =
  let fresh () =
    List.map
      (fun ((t : Tensor.t), (b : Buffer.t)) ->
        let arr =
          if Buffer.equal b func.Lower.fn_output && not prefill then
            Ndarray.zeros ~dtype:b.Buffer.dtype
              ~shape:[ b.Buffer.size ]
          else Ndarray.random_for_tensor ~seed t
        in
        (t, arr))
      func.Lower.fn_tensors
  in
  let out_of bindings =
    List.combine func.Lower.fn_tensors bindings
    |> List.find (fun (((_, b) : Tensor.t * Buffer.t), _) ->
           Buffer.equal b func.Lower.fn_output)
    |> fun (_, (_, arr)) -> arr
  in
  let b_ref = fresh () in
  Interp.run func ~bindings:b_ref;
  let b_emit = fresh () in
  let before = Emit_cache.last_fallback () in
  Emit_cache.run func ~bindings:b_emit;
  if emit_available && emitted then
    check_bool
      (Printf.sprintf "%s: ran emitted" func.Lower.fn_name)
      true
      (Emit_cache.last_fallback () == before);
  check_bool
    (Printf.sprintf "%s: emitted = interp" func.Lower.fn_name)
    true
    (Ndarray.equal (out_of b_ref) (out_of b_emit));
  let b_comp = fresh () in
  Compile.run func ~bindings:b_comp;
  check_bool
    (Printf.sprintf "%s: emitted = compiled" func.Lower.fn_name)
    true
    (Ndarray.equal (out_of b_comp) (out_of b_emit))

(* ---------- hand-built IR ---------- *)

let scalar_func ~name ~dtype ~n body_of =
  let t = Tensor.create ~name:"out" ~shape:[ n ] dtype in
  let buf = Buffer.of_tensor t in
  let i = Var.create "i" in
  let body = Stmt.for_ i ~extent:n (body_of buf i) in
  { Lower.fn_name = name; fn_tensors = [ (t, buf) ]; fn_output = buf;
    fn_iter_vars = [ (0, i) ]; fn_body = body }

let test_emit_arith () =
  differential
    (scalar_func ~name:"emit_arith" ~dtype:Dtype.I32 ~n:64 (fun buf i ->
         Stmt.Store
           ( buf,
             Texpr.var i,
             Texpr.add
               (Texpr.mul (Texpr.var i) (Texpr.int_imm 1103))
               (Texpr.select
                  (Texpr.cmp Texpr.Lt
                     (Texpr.mod_ (Texpr.var i) (Texpr.int_imm 7))
                     (Texpr.int_imm 3))
                  (Texpr.int_imm (-5))
                  (Texpr.div (Texpr.var i) (Texpr.int_imm 3))) )))

let test_emit_narrow_wrap () =
  (* i8 output: the emitted kernel must wrap exactly like Value.wrap *)
  differential
    (scalar_func ~name:"emit_wrap" ~dtype:Dtype.I8 ~n:64 (fun buf i ->
         Stmt.Store
           ( buf,
             Texpr.var i,
             Texpr.cast Dtype.I8
               (Texpr.mul (Texpr.var i) (Texpr.int_imm 37)) )))

let test_emit_float_cast_chain () =
  differential
    (scalar_func ~name:"emit_fcast" ~dtype:Dtype.F32 ~n:64 (fun buf i ->
         Stmt.Store
           ( buf,
             Texpr.var i,
             Texpr.mul
               (Texpr.cast Dtype.F32 (Texpr.var i))
               (Texpr.float_imm ~dtype:Dtype.F32 0.1) )))

let test_emit_let_alloc_if () =
  let t = Tensor.create ~name:"out" ~shape:[ 16 ] Dtype.I32 in
  let buf = Buffer.of_tensor t in
  let scratch = Buffer.create ~name:"s" ~dtype:Dtype.I32 ~size:2 () in
  let i = Var.create "i" in
  let v = Var.create "v" in
  let body =
    Stmt.for_ i ~extent:16
      (Stmt.Alloc
         ( scratch,
           Stmt.Let
             ( v,
               Texpr.mul (Texpr.var i) (Texpr.var i),
               Stmt.seq
                 [ Stmt.If
                     { cond =
                         Texpr.cmp Texpr.Le (Texpr.int_imm 50) (Texpr.var v);
                       likely = false;
                       then_ =
                         Stmt.Store (scratch, Texpr.int_imm 0, Texpr.var v);
                       else_ =
                         Some
                           (Stmt.Store
                              ( scratch,
                                Texpr.int_imm 0,
                                Texpr.sub (Texpr.int_imm 0) (Texpr.var v) ))
                     };
                   Stmt.Store
                     (buf, Texpr.var i, Texpr.load scratch (Texpr.int_imm 0))
                 ] ) ))
  in
  differential
    { Lower.fn_name = "emit_ctl"; fn_tensors = [ (t, buf) ]; fn_output = buf;
      fn_iter_vars = [ (0, i) ]; fn_body = body }

(* ---------- deferred wraps, scalar cells, unrolling, hoisting ---------- *)

(* A kernel from an [n]-element [in] to an [n]-element [out]:
   [body ~src ~dst ~n i] builds the whole loop nest, [i] a fresh index. *)
let map_func ~name ?(n = 24) ~src_dtype ~dst_dtype body =
  let tin = Tensor.create ~name:"in" ~shape:[ n ] src_dtype in
  let bin = Buffer.of_tensor tin in
  let tout = Tensor.create ~name:"out" ~shape:[ n ] dst_dtype in
  let bout = Buffer.of_tensor tout in
  let i = Var.create "i" in
  { Lower.fn_name = name; fn_tensors = [ (tout, bout); (tin, bin) ];
    fn_output = bout; fn_iter_vars = [ (0, i) ];
    fn_body = body ~src:bin ~dst:bout ~n i }

let mentions src sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length src && (String.equal (String.sub src i n) sub || go (i + 1))
  in
  go 0

let source func = snd (Emit.render func)

(* The innermost loops of rendered source, each as the names of the
   loop variables bound around it and the text of its body. *)
let innermost_loops src =
  let words l = String.split_on_char ' ' (String.trim l) in
  let rec go open_ acc = function
    | [] -> acc
    | l :: rest -> (
      match words l with
      | "for" :: v :: _ -> go ((v, ref false, Stdlib.Buffer.create 256) :: open_) acc rest
      | "par" :: _ :: "(fun" :: v :: _ ->
        (* a parallel loop's body ends with its closure *)
        go ((v, ref true, Stdlib.Buffer.create 0) :: open_) acc rest
      | [ "done;" ] | [ "());" ] -> (
        match open_ with
        | (_, inner, body) :: outer ->
          let acc =
            if !inner then acc
            else (List.map (fun (v, _, _) -> v) outer, Stdlib.Buffer.contents body) :: acc
          in
          List.iter (fun (_, inner, _) -> inner := true) outer;
          go outer acc rest
        | [] -> go open_ acc rest)
      | _ ->
        List.iter (fun (_, _, b) -> Stdlib.Buffer.add_string b (l ^ "\n")) open_;
        go open_ acc rest)
  in
  go [] [] (String.split_on_char '\n' src)

(* A load bound before a loop ([let h<n> = ...]) reads buffer [cell]. *)
let hoisted_from src cell =
  List.exists
    (fun l ->
      let l = String.trim l in
      String.length l > 5 && String.sub l 0 5 = "let h"
      && mentions l ("Array.unsafe_get " ^ cell ^ " "))
    (String.split_on_char '\n' src)

(* acc := acc * k + x * x - x, through a one-element scratch cell: the
   chain overflows the dtype several times before each store. *)
let cell_chain dtype k () =
  let acc = Buffer.create ~name:"acc" ~dtype ~size:1 () in
  let zero = Texpr.int_imm 0 in
  let func =
    map_func ~name:("emit_cell_" ^ Dtype.to_string dtype) ~src_dtype:dtype
      ~dst_dtype:dtype (fun ~src ~dst ~n i ->
        let x = Texpr.load src (Texpr.var i) in
        let a = Texpr.load acc zero in
        Stmt.Alloc
          ( acc,
            Stmt.seq
              [ Stmt.Store (acc, zero, Texpr.int_imm ~dtype 1);
                Stmt.for_ i ~extent:n
                  (Stmt.seq
                     [ Stmt.Store
                         ( acc,
                           zero,
                           Texpr.sub
                             (Texpr.add
                                (Texpr.mul a (Texpr.int_imm ~dtype k))
                                (Texpr.mul x x))
                             x );
                       Stmt.Store (dst, Texpr.var i, a)
                     ])
              ] ))
  in
  let src = source func in
  check_bool "cell rendered as a ref" true (mentions src "ref 0");
  check_bool "chain not wrapped into the cell" false
    (mentions src (":= (w_" ^ Dtype.to_string dtype));
  differential func

let test_emit_u8_negative () =
  (* in - 200 goes negative before the store and the comparison *)
  differential
    (map_func ~name:"emit_u8_neg" ~src_dtype:Dtype.U8 ~dst_dtype:Dtype.U8
       (fun ~src ~dst ~n i ->
         let d =
           Texpr.add
             (Texpr.sub (Texpr.load src (Texpr.var i)) (Texpr.int_imm ~dtype:Dtype.U8 200))
             (Texpr.int_imm ~dtype:Dtype.U8 3)
         in
         Stmt.for_ i ~extent:n
           (Stmt.Store
              ( dst,
                Texpr.var i,
                Texpr.select
                  (Texpr.cmp Texpr.Lt d (Texpr.int_imm ~dtype:Dtype.U8 60))
                  (Texpr.mul d d) d ))))

let test_emit_bool_chain () =
  (* w_bool is not a ring homomorphism: (0 - 1) + 1 is 1 in bool, 0 raw *)
  let func =
    map_func ~name:"emit_bool" ~src_dtype:Dtype.Bool ~dst_dtype:Dtype.Bool
      (fun ~src ~dst ~n i ->
        (* every (x, y) pair of bits, whatever the input data *)
        let bit k =
          Texpr.cast Dtype.Bool
            (Texpr.mod_ (Texpr.div (Texpr.var i) (Texpr.int_imm k)) (Texpr.int_imm 2))
        in
        let x = Texpr.mul (Texpr.load src (Texpr.var i)) (bit 1) in
        let y = bit 2 in
        Stmt.for_ i ~extent:n
          (Stmt.Store
             (dst, Texpr.var i, Texpr.add (Texpr.sub (Texpr.mul x y) y) (Texpr.sub y x))))
  in
  check_bool "bool ops wrap one by one" true
    (mentions (source func) "(w_bool ((w_bool");
  differential func

let test_emit_widening_cast () =
  differential
    (map_func ~name:"emit_widen" ~src_dtype:Dtype.I8 ~dst_dtype:Dtype.I32
       (fun ~src ~dst ~n i ->
         let x = Texpr.load src (Texpr.var i) in
         Stmt.for_ i ~extent:n
           (Stmt.Store
              ( dst,
                Texpr.var i,
                Texpr.cast Dtype.I32
                  (Texpr.add (Texpr.mul x (Texpr.int_imm ~dtype:Dtype.I8 100))
                     (Texpr.int_imm ~dtype:Dtype.I8 90)) ))))

(* Lets rebind [t] at three depths: no term or load mentioning [t] may
   be shared across the unrolled copies or hoisted out of the [j] loop. *)
let test_emit_unrolled_let () =
  differential
    (map_func ~name:"emit_unroll_let" ~n:32 ~src_dtype:Dtype.I32 ~dst_dtype:Dtype.I32
       (fun ~src ~dst ~n:_ i ->
         let j = Var.create "j" and t = Var.create "t" in
         let vi = Texpr.var i and vj = Texpr.var j and vt = Texpr.var t in
         Stmt.Let
           ( t,
             Texpr.int_imm 5,
             Stmt.for_ j ~extent:8
               (Stmt.Let
                  ( t,
                    vj,
                Stmt.for_ i ~extent:4
                  (Stmt.Let
                     ( t,
                       Texpr.add (Texpr.mul vi (Texpr.int_imm 3)) vj,
                       Stmt.Store
                         ( dst,
                           Texpr.add (Texpr.mul vj (Texpr.int_imm 4)) vi,
                           Texpr.add
                             (Texpr.mul vt (Texpr.int_imm 5))
                             (Texpr.mul (Texpr.load src vt) (Texpr.int_imm 7)) ) )) )) )))

(* Negative dividends: quotient and remainder by a positive literal
   truncate toward zero, like Value; by -1 the quotient of the dtype's
   minimum overflows and must still wrap. *)
let test_emit_div_literal dtype () =
  differential
    (map_func ~name:("emit_divlit_" ^ Dtype.to_string dtype) ~src_dtype:dtype
       ~dst_dtype:dtype (fun ~src ~dst ~n i ->
         let x = Texpr.mul (Texpr.load src (Texpr.var i)) (Texpr.int_imm ~dtype 32) in
         let by k = Texpr.int_imm ~dtype k in
         Stmt.for_ i ~extent:n
           (Stmt.Store
              ( dst,
                Texpr.var i,
                Texpr.add
                  (Texpr.add (Texpr.div x (by 5)) (Texpr.mod_ x (by 7)))
                  (Texpr.max_ (Texpr.div x (by (-1))) (by 0)) ))))

(* The guarded load reads [in.(1000 * j)], far past the 64-element
   array, in the row where the guard is false: hoisting it out of the
   [i] loop would raise. *)
let test_emit_guarded_load () =
  let func =
    map_func ~name:"emit_guard" ~n:64 ~src_dtype:Dtype.I32 ~dst_dtype:Dtype.I32
      (fun ~src ~dst ~n:_ i ->
        let j = Var.create "j" in
        let at = Texpr.add (Texpr.mul (Texpr.var j) (Texpr.int_imm 32)) (Texpr.var i) in
        Stmt.for_ j ~extent:2
          (Stmt.for_ i ~extent:32
             (Stmt.If
                { cond = Texpr.cmp Texpr.Lt (Texpr.var j) (Texpr.int_imm 1);
                  likely = false;
                  then_ =
                    Stmt.Store
                      (dst, at, Texpr.load src (Texpr.mul (Texpr.var j) (Texpr.int_imm 1000)));
                  else_ = Some (Stmt.Store (dst, at, Texpr.int_imm 7)) })))
  in
  check_bool "guarded load stays in the loop" false (mentions (source func) "let h");
  differential func

(* out.(0) accumulates and out.(i) reads it back: the invariant-looking
   load of out.(0) must stay in the loop that stores to it. *)
let test_emit_stored_buffer_load () =
  let func =
    map_func ~name:"emit_stored" ~n:32 ~src_dtype:Dtype.I32 ~dst_dtype:Dtype.I32
      (fun ~src ~dst ~n i ->
        let head = Texpr.load dst (Texpr.int_imm 0) in
        Stmt.for_ i ~extent:n
          (Stmt.seq
             [ Stmt.Store (dst, Texpr.int_imm 0, Texpr.add head (Texpr.load src (Texpr.var i)));
               Stmt.Store (dst, Texpr.var i, Texpr.add head (Texpr.load src (Texpr.int_imm 3)))
             ]))
  in
  let src = source func in
  check_bool "load of the stored buffer stays in the loop" false (hoisted_from src "c0");
  check_bool "invariant load of the other buffer is hoisted" true (hoisted_from src "c1");
  differential func

(* ---------- accumulator tiles ---------- *)

(* Tiles [promote_tiles] finds in [func] after intrinsic expansion. *)
let tiles func = snd (Emit.promote_tiles (Semantics.expand func))

(* The rewrite is plain TIR: the tree-walker agrees on both sides. *)
let interp_same (func : Lower.func) =
  let run (f : Lower.func) =
    let bindings =
      List.map
        (fun ((t : Tensor.t), (b : Buffer.t)) ->
          if Buffer.equal b f.Lower.fn_output then (t, Ndarray.of_tensor_zeros t)
          else (t, Ndarray.random_for_tensor ~seed:9 t))
        f.Lower.fn_tensors
    in
    Interp.run f ~bindings;
    snd (List.hd bindings)
  in
  check_bool
    (func.Lower.fn_name ^ ": interp on the tiled TIR = interp")
    true
    (Ndarray.equal (run func) (run (fst (Emit.promote_tiles func))))

(* An [n]-element [out] accumulated over [in] by [nest ~src ~dst]. *)
let accumulate ~name ?(n = 4) ?(m = 64) nest =
  let tin = Tensor.create ~name:"in" ~shape:[ m ] Dtype.I32 in
  let bin = Buffer.of_tensor tin in
  let tout = Tensor.create ~name:"out" ~shape:[ n ] Dtype.I32 in
  let bout = Buffer.of_tensor tout in
  let r = Var.create "r" and i = Var.create "i" in
  { Lower.fn_name = name; fn_tensors = [ (tout, bout); (tin, bin) ];
    fn_output = bout; fn_iter_vars = [ (0, i) ];
    fn_body = nest ~src:bin ~dst:bout ~r ~i }

(* out.(at) += in.(r) * k *)
let mac ~src ~dst ~r at =
  Stmt.Store
    ( dst,
      at,
      Texpr.add (Texpr.load dst at)
        (Texpr.mul (Texpr.load src (Texpr.var r)) (Texpr.int_imm 600_000_007)) )

let tiled_positive func =
  check_bool (func.Lower.fn_name ^ ": promoted") true (tiles func > 0);
  interp_same func;
  differential func

let tiled_negative func =
  Alcotest.(check int) (func.Lower.fn_name ^ ": not promoted") 0 (tiles func);
  differential func

(* A smoke-scale Table I row (output 2x2) and its scalar reference. *)
let smoke_row =
  let wl = Unit_models.Table1.workloads.(14) in
  let hw = wl.Workload.kernel + wl.Workload.stride in
  { wl with Workload.h = hw; w = hw }

let test_tile_table1 () =
  let compiled = Pipeline.conv_compiled_x86 smoke_row in
  let func = compiled.Pipeline.c_tuned.Cpu_tuner.t_func in
  let counter = Unit_obs.Obs.counter "emit.tiles_promoted" in
  let was = Unit_obs.Obs.enabled () in
  Unit_obs.Obs.set_enabled true;
  let before = Unit_obs.Obs.value counter in
  Fun.protect ~finally:(fun () -> Unit_obs.Obs.set_enabled was) (fun () ->
      ignore (Emit.render func));
  check_bool "emit.tiles_promoted counted" true (Unit_obs.Obs.value counter > before);
  interp_same (Semantics.expand func);
  differential func

(* Each output of the scalar reference is a one-element tile: a ref *)
let test_tile_scalar_reference () =
  let compiled = Pipeline.conv_compiled_x86 smoke_row in
  let func = Lower.scalar_reference compiled.Pipeline.c_op in
  check_bool "one-element tile rendered as a ref" true (mentions (source func) "ref 0");
  tiled_positive func

(* in.(r) * 600000007 leaves the i32 range on the first product: the
   raw tile sums past 2^31 many times before the copy-out wraps once. *)
let test_tile_i32_overflow () =
  let func =
    accumulate ~name:"tile_overflow" (fun ~src ~dst ~r ~i ->
        Stmt.for_ r ~extent:64 (Stmt.for_ i ~extent:4 (mac ~src ~dst ~r (Texpr.var i))))
  in
  (* the reduction is the innermost loop; only the copy-out wraps *)
  let loops = innermost_loops (source func) in
  check_bool "reduction loop rendered" true (loops <> []);
  List.iter
    (fun (_, body) -> check_bool "no wrap inside the reduction" false (mentions body "w_i32"))
    loops;
  tiled_positive func

let test_tile_index_varies () =
  tiled_negative
    (accumulate ~name:"tile_varies" ~n:68 (fun ~src ~dst ~r ~i ->
         Stmt.for_ r ~extent:64
           (Stmt.for_ i ~extent:4
              (mac ~src ~dst ~r (Texpr.add (Texpr.var i) (Texpr.var r))))))

(* out.(128 + i8(i)) visits [128, 256) then [0, 128): the coefficient
   of [i] reads 1 through the wrapping cast, so the cast must refuse. *)
let test_tile_wrapping_cast () =
  tiled_negative
    (accumulate ~name:"tile_cast" ~n:256 (fun ~src ~dst ~r ~i ->
         let at =
           Texpr.add (Texpr.int_imm 128)
             (Texpr.cast Dtype.I32 (Texpr.cast Dtype.I8 (Texpr.var i)))
         in
         Stmt.for_ r ~extent:64 (Stmt.for_ i ~extent:256 (mac ~src ~dst ~r at))))

let test_tile_not_dense () =
  let j = Var.create "j" in
  (* a stride-2 load with an overlapping store *)
  tiled_negative
    (accumulate ~name:"tile_sparse" ~n:8 (fun ~src ~dst ~r ~i ->
         let sparse = Texpr.mul (Texpr.var i) (Texpr.int_imm 2) in
         let overlapping = Texpr.add (Texpr.var i) (Texpr.var j) in
         Stmt.for_ r ~extent:64
           (Stmt.for_ i ~extent:4
              (Stmt.for_ j ~extent:4
                 (Stmt.Store
                    ( dst,
                      overlapping,
                      Texpr.add (Texpr.load dst sparse) (Texpr.load src (Texpr.var r)) ))))));
  (* the same two offsets, each on its own *)
  tiled_negative
    (accumulate ~name:"tile_stride2" ~n:8 (fun ~src ~dst ~r ~i ->
         Stmt.for_ r ~extent:64
           (Stmt.for_ i ~extent:4
              (mac ~src ~dst ~r (Texpr.mul (Texpr.var i) (Texpr.int_imm 2))))));
  tiled_negative
    (accumulate ~name:"tile_overlap" ~n:8 (fun ~src ~dst ~r ~i ->
         Stmt.for_ r ~extent:64
           (Stmt.for_ i ~extent:4
              (Stmt.for_ j ~extent:4
                 (mac ~src ~dst ~r (Texpr.add (Texpr.var i) (Texpr.var j)))))))

let test_tile_store_under_if () =
  tiled_negative
    (accumulate ~name:"tile_if" (fun ~src ~dst ~r ~i ->
         Stmt.for_ r ~extent:64
           (Stmt.for_ i ~extent:4
              (Stmt.If
                 { cond = Texpr.cmp Texpr.Lt (Texpr.load src (Texpr.var r)) (Texpr.int_imm 2);
                   likely = false;
                   then_ = mac ~src ~dst ~r (Texpr.var i);
                   else_ = None }))))

let test_tile_load_in_select () =
  tiled_negative
    (accumulate ~name:"tile_select" (fun ~src ~dst ~r ~i ->
         let x = Texpr.load src (Texpr.var r) in
         Stmt.for_ r ~extent:64
           (Stmt.for_ i ~extent:4
              (Stmt.Store
                 ( dst,
                   Texpr.var i,
                   Texpr.select
                     (Texpr.cmp Texpr.Lt x (Texpr.int_imm 2))
                     (Texpr.add (Texpr.load dst (Texpr.var i)) x)
                     x )))))

let test_tile_above_cap () =
  tiled_negative
    (accumulate ~name:"tile_cap" ~n:2048 ~m:2 (fun ~src ~dst ~r ~i ->
         Stmt.for_ r ~extent:2 (Stmt.for_ i ~extent:2048 (mac ~src ~dst ~r (Texpr.var i)))))

(* ---------- pipeline-lowered tensorized kernels ---------- *)

let small_conv =
  { Workload.c = 32; h = 8; w = 8; k = 32; kernel = 3; stride = 1;
    padding = 1; groups = 1 }

let test_emit_pipeline_x86 () =
  let compiled = Pipeline.conv_compiled_x86 small_conv in
  differential compiled.Pipeline.c_tuned.Cpu_tuner.t_func

let test_emit_pipeline_arm () =
  let compiled = Pipeline.conv_compiled_arm small_conv in
  differential compiled.Pipeline.c_tuned.Cpu_tuner.t_func

(* How much each named counter grows while [f] runs with tracing on. *)
let counted names f =
  let module Obs = Unit_obs.Obs in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let before = List.map (fun n -> Obs.value (Obs.counter n)) names in
  let r = Fun.protect ~finally:(fun () -> Obs.set_enabled was) f in
  (r, List.map2 (fun n b -> Obs.value (Obs.counter n) - b) names before)

let check_counted what names counts =
  List.iter2 (fun n c -> check_bool (Printf.sprintf "%s: %s counted" what n) true (c > 0)) names counts

(* The rules are visible on a real tensorized kernel through their
   counters.  Its intrinsic accumulator cell folds into the register
   tile, so the scalar-cell rule shows on the scalar reference. *)
let test_emit_rule_counters () =
  let compiled = Pipeline.conv_compiled_x86 small_conv in
  let names =
    [ "emit.wraps_deferred"; "emit.loops_unrolled"; "emit.loads_hoisted";
      "emit.index_terms_hoisted"; "emit.tiles_promoted"; "emit.register_tiles";
      "emit.tiles_outlined"; "emit.lanes_packed"; "emit.copyouts_stored";
      "emit.accesses_unchecked" ]
  in
  let _, counts =
    counted names (fun () -> Emit.render compiled.Pipeline.c_tuned.Cpu_tuner.t_func)
  in
  check_counted "tensorized" names counts;
  let _, counts =
    counted [ "emit.scalar_cells" ] (fun () ->
        Emit.render (Lower.scalar_reference compiled.Pipeline.c_op))
  in
  check_counted "scalar reference" [ "emit.scalar_cells" ] counts

(* ---------- register tiles and lane pairs ---------- *)

let register_names = [ "emit.register_tiles"; "emit.lanes_packed" ]

(* Every Table I row of the kernels benchmark at smoke scale: the
   emitted kernel keeps its accumulators in registers, packs lane pairs
   and matches the scalar reference, on random inputs and on inputs that
   drive every lane's partial sum to its largest magnitude of either
   sign (activations 255, weights all -128 or all 127). *)
let test_register_table1 () =
  List.iter
    (fun index ->
      let wl = Unit_models.Table1.workloads.(index - 1) in
      let hw = wl.Workload.kernel + wl.Workload.stride in
      let compiled = Pipeline.conv_compiled_x86 { wl with Workload.h = hw; w = hw } in
      let func = compiled.Pipeline.c_tuned.Cpu_tuner.t_func in
      let what = Printf.sprintf "t%d" index in
      let _, counts = counted register_names (fun () -> Emit.render func) in
      check_counted what register_names counts;
      let op = compiled.Pipeline.c_op in
      let digest engine f inputs =
        let out = Ndarray.of_tensor_zeros op.Op.output in
        Pipeline.run_func ~engine f ~bindings:((op.Op.output, out) :: inputs);
        Ndarray.digest out
      in
      let constant weight (t : Tensor.t) =
        let arr = Ndarray.of_tensor_zeros t in
        Ndarray.fill arr (fun _ ->
            Value.of_int t.Tensor.dtype
              (match t.Tensor.dtype with Dtype.U8 -> 255 | _ -> weight));
        arr
      in
      List.iter
        (fun (how, make) ->
          let inputs = List.map (fun t -> (t, make t)) (Op.inputs op) in
          let before = Emit_cache.last_fallback () in
          let emitted = digest Pipeline.Emitted func inputs in
          if emit_available then
            check_bool (what ^ ": ran emitted") true (Emit_cache.last_fallback () == before);
          Alcotest.(check string)
            (Printf.sprintf "%s, %s inputs: emitted = scalar reference" what how)
            (digest Pipeline.Compiled (Lower.scalar_reference op) inputs)
            emitted)
        [ ("random", Ndarray.random_for_tensor ~seed:index);
          ("lowest", constant (-128));
          ("highest", constant 127) ])
    [ 2; 3; 5; 13; 14; 15 ]

(* 33024 u8*i8 updates per lane can reach 33024 * 32640 > 2^30, past
   what a packed lane holds: the tile stays in registers unpacked, the
   render warns with the overflow rule, and the result is unchanged. *)
let test_register_deep_dense () =
  let compiled =
    Pipeline.compiled Pipeline.X86 (Workload.Fc { Workload.d_k = 33_024; d_units = 16 })
  in
  let func = compiled.Pipeline.c_tuned.Cpu_tuner.t_func in
  let (plan, _), counts = counted register_names (fun () -> Emit.render func) in
  Alcotest.(check (list int)) "register tile, no packed pair" [ 1; 0 ]
    (List.map (Stdlib.min 1) counts);
  check_bool "overflow warning raised" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.rule = Diag.Overflow && not (Diag.is_error d))
       plan.Emit.p_diags);
  differential func

(* Two column loops address the same tile cells through different
   accesses, with updates whose order matters: hoisting a column above
   the reduction would reorder a cell's updates, so the tile stays an
   array in memory. *)
let test_register_shared_columns () =
  let c = Var.create "c" and l = Var.create "l" in
  let func =
    accumulate ~name:"tile_shared_columns" ~n:8 (fun ~src ~dst ~r ~i ->
        let at col = Texpr.add (Texpr.mul (Texpr.var col) (Texpr.int_imm 4)) (Texpr.var l) in
        let update col k =
          Stmt.Store
            ( dst,
              at col,
              Texpr.add
                (Texpr.mul (Texpr.load dst (at col)) (Texpr.int_imm k))
                (Texpr.load src (Texpr.var r)) )
        in
        Stmt.for_ r ~extent:64
          (Stmt.for_ i ~extent:2
             (Stmt.for_ c ~extent:2
                (Stmt.for_ l ~extent:4 (Stmt.seq [ update i 3; update c 5 ])))))
  in
  let _, counts = counted [ "emit.register_tiles" ] (fun () -> Emit.render func) in
  Alcotest.(check (list int)) "no register tile" [ 0 ] counts;
  tiled_positive func

(* ---------- compact pairs and first-writer copy-outs ---------- *)

(* The hook's pack by its definition: cell [d*q + r] pairs the window's
   weights [2dq + r] and [2dq + r + d]. *)
let pairs_by_definition w o n d =
  Array.init (n / 2) (fun c ->
      let src = o + (2 * d * (c / d)) + (c mod d) in
      w.(src) + (w.(src + d) lsl 31))

let check_pairs what w o n d p =
  Alcotest.(check (array int)) what (pairs_by_definition w o n d) p

let test_pack_layout () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun d ->
      List.iter
        (fun o ->
          let n = 2 * d * 5 in
          let w = Array.init (o + n + 3) (fun _ -> Random.State.int rng 256 - 128) in
          let p = Unit_emit_hook.pack_pairs w o n d in
          check_pairs (Printf.sprintf "d = %d, o = %d" d o) w o n d p)
        [ 1; 3 ])
    [ 1; 2; 4 ]

let test_pack_invalid () =
  let w = Array.make 16 1 in
  List.iter
    (fun (what, n, d) ->
      check_bool what true
        (match Unit_emit_hook.pack_pairs w 0 n d with
         | exception Invalid_argument _ -> true
         | _ -> false))
    [ ("distance 0", 8, 0); ("distance -1", 8, -1); ("window 6, distance 2", 6, 2);
      ("window 5, distance 1", 5, 1) ]

(* One packed kernel, packing per run: bit-identical to the closure
   engine with other weights on its second run, and with two runs at
   once from two domains and from two threads of one domain. *)
let test_pack_concurrent () =
  let compiled = Pipeline.conv_compiled_x86 small_conv in
  let func = compiled.Pipeline.c_tuned.Cpu_tuner.t_func in
  let _, counts = counted [ "emit.lanes_packed" ] (fun () -> Emit.render func) in
  check_counted "small conv" [ "emit.lanes_packed" ] counts;
  let op = compiled.Pipeline.c_op in
  let digest engine seed =
    let out = Ndarray.of_tensor_zeros op.Op.output in
    let inputs = List.map (fun t -> (t, Ndarray.random_for_tensor ~seed t)) (Op.inputs op) in
    Pipeline.run_func ~engine func ~bindings:((op.Op.output, out) :: inputs);
    Ndarray.digest out
  in
  let seeds = [ 1; 2 ] in
  let expected = List.map (digest Pipeline.Compiled) seeds in
  let before = Emit_cache.last_fallback () in
  let emitted = digest Pipeline.Emitted in
  let check how got =
    List.iter2
      (fun seed (want, got) ->
        Alcotest.(check string) (Printf.sprintf "%s, weights %d: emitted = closure" how seed) want got)
      seeds (List.combine expected got)
  in
  check "one after another" (List.map emitted seeds);
  check "two domains"
    (List.map Domain.join (List.map (fun seed -> Domain.spawn (fun () -> emitted seed)) seeds));
  let got = Array.make (List.length seeds) "" in
  List.iter Thread.join
    (List.mapi (fun i seed -> Thread.create (fun () -> got.(i) <- emitted seed) ()) seeds);
  check "two threads" (Array.to_list got);
  if emit_available then check_bool "ran emitted" true (Emit_cache.last_fallback () == before)

(* A packed register-tile nest: 3 parallel columns of 4 i32 lanes over
   a 6-step reduction of u8 activations times i8 weights, after an init
   nest that stores [init] to every output cell.  With [split] the
   reduction runs as two halves, a loop outside the columns, so two tile
   lives share each window.  With [peek] a statement between the two
   copies [out] to [seen], the function's output, before the columns
   run. *)
let first_writer_nest ~name ?(init = 0) ?(split = false) ?(peek = false) () =
  let cols = 3 and lanes = 4 and k = 4 and red = 6 in
  let halves = if split then 2 else 1 in
  let ta = Tensor.create ~name:"a" ~shape:[ cols * red * k ] Dtype.U8 in
  let tw = Tensor.create ~name:"w" ~shape:[ red * lanes * k ] Dtype.I8 in
  let tout = Tensor.create ~name:"out" ~shape:[ cols * lanes ] Dtype.I32 in
  let ba = Buffer.of_tensor ta and bw = Buffer.of_tensor tw and bout = Buffer.of_tensor tout in
  let v = Texpr.var and imm n = Texpr.int_imm n in
  let sum = List.fold_left Texpr.add (imm 0) in
  let c = Var.create "c" and h = Var.create "h" and r = Var.create "r" and t = Var.create "t" in
  let l = Var.create "l" and kk = Var.create "kk" and i = Var.create "i" and j = Var.create "j" in
  let step = if split then Texpr.add (Texpr.mul (v h) (imm (red / halves))) (v r) else v r in
  let at = sum [ Texpr.mul (v c) (imm lanes); v l ] in
  let ia = sum [ Texpr.mul (v c) (imm (red * k)); Texpr.mul (v t) (imm k); v kk ] in
  let iw = sum [ Texpr.mul (v t) (imm (lanes * k)); Texpr.mul (v l) (imm k); v kk ] in
  let byte b ix = Texpr.cast Dtype.I32 (Texpr.load b ix) in
  let update = Stmt.Store (bout, at, Texpr.add (Texpr.load bout at) (Texpr.mul (byte ba ia) (byte bw iw))) in
  (* the [Let] keeps the lanes out of the reduction chain *)
  let tile =
    Stmt.for_ r ~extent:(red / halves)
      (Stmt.Let (t, step, Stmt.for_ l ~extent:lanes (Stmt.for_ kk ~extent:k update)))
  in
  let columns = Stmt.for_ c ~extent:cols ~kind:Stmt.Parallel tile in
  let compute = if split then Stmt.for_ h ~extent:halves columns else columns in
  let init = Stmt.for_ i ~extent:(cols * lanes) (Stmt.Store (bout, v i, imm init)) in
  if peek then
    let tseen = Tensor.create ~name:"seen" ~shape:[ cols * lanes ] Dtype.I32 in
    let bseen = Buffer.of_tensor tseen in
    let copy = Stmt.for_ j ~extent:(cols * lanes) (Stmt.Store (bseen, v j, Texpr.load bout (v j))) in
    { Lower.fn_name = name; fn_tensors = [ (tseen, bseen); (tout, bout); (ta, ba); (tw, bw) ];
      fn_output = bseen; fn_iter_vars = [ (0, c) ]; fn_body = Stmt.seq [ init; copy; compute ] }
  else
    { Lower.fn_name = name; fn_tensors = [ (tout, bout); (ta, ba); (tw, bw) ]; fn_output = bout;
      fn_iter_vars = [ (0, c) ]; fn_body = Stmt.seq [ init; compute ] }

let copy_out_names = [ "emit.lanes_packed"; "emit.copyouts_stored" ]

(* [func] packs its lanes, stores its copy-out iff [stored], and is
   bit-identical on the three engines from a random output. *)
let first_writer ~stored func =
  let (_, src), counts = counted copy_out_names (fun () -> Emit.render func) in
  let what = func.Lower.fn_name in
  (match counts with
   | [ packed; copyouts ] ->
     check_bool (what ^ ": lanes packed") true (packed > 0);
     check_bool (what ^ ": copy-out stored") stored (copyouts > 0)
   | _ -> assert false);
  check_bool (what ^ ": copy-out reads back") (not stored) (mentions src "(w_i32 ((Array.unsafe_get");
  interp_same func;
  differential ~prefill:true func

(* The windows of the column loop cover the output: each lane stores
   its sum, and the init nest goes. *)
let test_first_writer_stored () =
  let func = first_writer_nest ~name:"first_writer" () in
  first_writer ~stored:true func;
  check_bool "init nest dropped" false (mentions (source func) "x_ = 0 in")

let test_first_writer_split () =
  first_writer ~stored:false (first_writer_nest ~name:"first_writer_split" ~split:true ())

let test_first_writer_nonzero () =
  first_writer ~stored:false (first_writer_nest ~name:"first_writer_nonzero" ~init:7 ())

(* A load of the output between the init nest and the tiles reads the
   init nest's 0s, so the init nest stays and the copy-out reads back. *)
let test_first_writer_peeked () =
  first_writer ~stored:false (first_writer_nest ~name:"first_writer_peeked" ~peek:true ())

(* A warm-up's baked artifact serves the daemon: after [bake Emitted]
   into a fresh store, a run request on the emitted engine compiles
   nothing. *)
let test_bake_serves_run () =
  if not emit_available then Alcotest.skip ();
  let module Obs = Unit_obs.Obs in
  let compile_spans () =
    List.length
      (List.filter
         (fun (s : Obs.span_record) -> s.Obs.sp_name = "emit.compile")
         (Obs.spans ()))
  in
  let wl =
    { Workload.c = 16; h = 5; w = 5; k = 16; kernel = 3; stride = 1; padding = 1;
      groups = 1 }
  in
  let dir = Filename.temp_file "unit_emit_bake" "" in
  Sys.remove dir;
  let was = Obs.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled was;
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir) : int))
  @@ fun () ->
  Unit_store.Sharded.with_installed dir @@ fun _ _ ->
  Obs.set_enabled true;
  Obs.reset ();
  Pipeline.bake Pipeline.Emitted Pipeline.X86
    (Pipeline.compiled Pipeline.X86 (Workload.Conv wl));
  check_bool "bake compiled the kernel" true (compile_spans () > 0);
  Obs.reset ();
  ignore
    (Unit_serve.Handler.handle
       (Unit_serve.Protocol.Run
          { target = Pipeline.X86; engine = Pipeline.Emitted;
            workload = Unit_serve.Protocol.Conv wl })
      : Unit_obs.Json.t);
  Alcotest.(check int) "emit.compile spans in the served run" 0 (compile_spans ())

(* ---------- index hoisting ---------- *)

let kernel_rows = [ 2; 3; 5; 13; 14; 15 ]

let table1_func ?(smoke = false) index =
  let wl = Unit_models.Table1.workloads.(index - 1) in
  let hw = wl.Workload.kernel + wl.Workload.stride in
  let wl = if smoke then { wl with Workload.h = hw; w = hw } else wl in
  (Pipeline.conv_compiled_x86 wl).Pipeline.c_tuned.Cpu_tuner.t_func

(* The kernels workload's rows render with every index term hoisted to
   the loop that changes it: no innermost loop divides, takes a
   remainder or multiplies by a variable bound outside it, and the
   1x1 rows' extent-1 reduction loops are gone. *)
let test_hoisting_rendered () =
  List.iter
    (fun index ->
      let what = Printf.sprintf "t%d" index in
      let (_, src), counts =
        counted [ "emit.index_terms_hoisted" ] (fun () -> Emit.render (table1_func index))
      in
      check_bool (what ^ ": index terms hoisted") true (List.hd counts > 0);
      check_bool (what ^ ": no extent-1 loop left") false (mentions src " = 0 to 0 do");
      let loops = innermost_loops src in
      check_bool (what ^ ": has innermost loops") true (loops <> []);
      List.iter
        (fun (outer, body) ->
          check_bool (what ^ ": no mod in an innermost loop") false (mentions body " mod ");
          check_bool (what ^ ": no division in an innermost loop") false (mentions body " / ");
          List.iter
            (fun v ->
              check_bool
                (Printf.sprintf "%s: no product with %s in an innermost loop" what v)
                false
                (mentions body ("(" ^ v ^ " * ") || mentions body (" * " ^ v ^ ")")))
            outer)
        loops)
    kernel_rows

(* Every access of the kernels workload's rows is proven inside its
   buffer: each renders unchecked, behind the kernel's entry check. *)
let test_bounds_rendered () =
  List.iter
    (fun index ->
      let _, counts =
        counted [ "emit.accesses_unchecked"; "emit.accesses_checked" ] (fun () ->
            Emit.render (table1_func index))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "t%d: accesses unchecked, checked" index)
        [ 1; 0 ]
        (List.map (Stdlib.min 1) counts))
    kernel_rows

(* Hoisted indices are exact: the six rows at smoke scale, a stride-2
   1x1 conv and a padded conv are bit-identical on the three engines
   ("arm conv" covers an Arm udot conv). *)
let test_hoisting_exact () =
  List.iter (fun index -> differential (table1_func ~smoke:true index)) kernel_rows;
  List.iter
    (fun wl -> differential (Pipeline.conv_compiled_x86 wl).Pipeline.c_tuned.Cpu_tuner.t_func)
    [ { Workload.c = 16; h = 8; w = 8; k = 32; kernel = 1; stride = 2; padding = 0; groups = 1 };
      { Workload.c = 16; h = 6; w = 6; k = 16; kernel = 3; stride = 1; padding = 2; groups = 1 } ]

(* An index whose terms {!Linear.bounds} cannot prove (a literal beyond
   2^30) keeps its rendering: nothing is hoisted, and the result still
   matches the other engines. *)
let test_hoisting_unproven () =
  let func =
    map_func ~name:"emit_unproven" ~n:40 ~src_dtype:Dtype.I32 ~dst_dtype:Dtype.I32
      (fun ~src ~dst ~n:_ i ->
        let j = Var.create "j" in
        let big = Texpr.int_imm ((1 lsl 30) + 1) in
        (* (i * big) / big is i, through a node no interval covers *)
        let at =
          Texpr.add
            (Texpr.mul (Texpr.div (Texpr.mul (Texpr.var i) big) big) (Texpr.int_imm 20))
            (Texpr.var j)
        in
        Stmt.for_ i ~extent:2
          (Stmt.for_ j ~extent:20 (Stmt.Store (dst, at, Texpr.load src at))))
  in
  let _, counts = counted [ "emit.index_terms_hoisted" ] (fun () -> Emit.render func) in
  Alcotest.(check (list int)) "no partial hoisted" [ 0 ] counts;
  check_bool "index keeps its offset" true (mentions (source func) "o0 + ");
  differential func

(* Random store and load indices, some of which leave their buffer's
   window, in loops the interval analysis cannot see guards through:
   the emitted engine gives the closure engine's output, or falls back
   and raises the closure engine's error.  An in-bounds run must not
   fall back: a check that fires spuriously would hide behind the
   fallback. *)
let prop_window_random =
  QCheck.Test.make ~name:"indices leaving the window" ~count:16 QCheck.small_nat
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let e1 = pick [| 1; 3; 17 |] and e2 = pick [| 2; 5; 20 |] in
      let n = e1 * e2 in
      let tin = Tensor.create ~name:"in" ~shape:[ 64 ] Dtype.I32 in
      let bin = Buffer.of_tensor tin in
      let tout = Tensor.create ~name:"out" ~shape:[ n ] Dtype.I32 in
      let bout = Buffer.of_tensor tout in
      let i = Var.create "i" and j = Var.create "j" in
      let imm k = Texpr.int_imm k in
      let vi = Texpr.var i and vj = Texpr.var j in
      (* a term over [i] and [j] that may be negative or past [bound] *)
      let term bound =
        match Random.State.int rng 4 with
        | 0 -> imm 0
        | 1 -> imm (Random.State.int rng 7 - 3)
        | 2 -> Texpr.sub (Texpr.mod_ vj (imm (1 + Random.State.int rng 4))) (imm 1)
        | _ ->
          Texpr.sub
            (Texpr.add (Texpr.mul vi (imm (Random.State.int rng 5))) vj)
            (imm (Random.State.int rng (bound + 1)))
      in
      let at = Texpr.add (Texpr.add (Texpr.mul vi (imm e2)) vj) (term n) in
      let from = Texpr.add (Texpr.add (Texpr.mul vi (imm 3)) vj) (term 64) in
      let store =
        Stmt.Store (bout, at, Texpr.add (Texpr.mul (Texpr.load bin from) (imm 3)) vi)
      in
      (* a guard keeps the store in the window, but not the analysis *)
      let guarded =
        Stmt.If
          { cond =
              Texpr.and_ (Texpr.cmp Texpr.Le (imm 0) at) (Texpr.cmp Texpr.Lt at (imm n));
            likely = true; then_ = store; else_ = None }
      in
      let body =
        Stmt.for_ i ~extent:e1
          (Stmt.for_ j ~extent:e2 (if Random.State.bool rng then guarded else store))
      in
      let func =
        { Lower.fn_name = Printf.sprintf "emit_window_%d" seed;
          fn_tensors = [ (tout, bout); (tin, bin) ]; fn_output = bout;
          fn_iter_vars = [ (0, i) ]; fn_body = body }
      in
      let run engine =
        let out = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ n ] in
        match engine ~bindings:[ (tout, out); (tin, Ndarray.random_for_tensor ~seed tin) ] with
        | () -> Ok (Ndarray.digest out)
        | exception Interp.Runtime_error e -> Error e
      in
      let before = Emit_cache.last_fallback () in
      let emitted = run (Emit_cache.run func) in
      let fell_back = Emit_cache.last_fallback () != before in
      let compiled = run (Compile.run func) in
      emitted = compiled && ((not emit_available) || fell_back = Result.is_error compiled))

(* [t] rebound from its own value: the inner [t + j] must not be
   inlined where [t] already names the inner binding. *)
let test_hoisting_rebound_let () =
  differential
    (map_func ~name:"emit_rebound_let" ~n:40 ~src_dtype:Dtype.U8 ~dst_dtype:Dtype.I32
       (fun ~src ~dst ~n:_ i ->
         let j = Var.create "j" and t = Var.create "t" in
         let vi = Texpr.var i and vj = Texpr.var j and vt = Texpr.var t in
         Stmt.for_ j ~extent:2
           (Stmt.Let
              ( t,
                Texpr.cast Dtype.I32 (Texpr.load src vj),
                Stmt.Let
                  ( t,
                    Texpr.add vt vj,
                    Stmt.for_ i ~extent:20
                      (Stmt.Store
                         ( dst,
                           Texpr.add vi (Texpr.mul vj (Texpr.int_imm 20)),
                           Texpr.add (Texpr.mul vt (Texpr.int_imm 3)) vi )) ) ))))

(* Random loop nests whose values and indices mix affine terms,
   products, [/] and [mod] of the loop variables and of [Let]s, some
   reading a load: emitted = compiled = interp.  Extents 1 fold, up to
   16 unroll, 17 and 20 stay loops.  The seed picks the program. *)
let prop_hoisting_random =
  QCheck.Test.make ~name:"random index terms" ~count:12 QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let e1 = pick [| 1; 3; 17 |] and e2 = pick [| 1; 2; 20 |] and e3 = pick [| 1; 5; 17 |] in
      let tin = Tensor.create ~name:"in" ~shape:[ 64 ] Dtype.U8 in
      let bin = Buffer.of_tensor tin in
      let tout = Tensor.create ~name:"out" ~shape:[ e1 * e2 * e3 ] Dtype.I32 in
      let bout = Buffer.of_tensor tout in
      let i = Var.create "i" and j = Var.create "j" and k = Var.create "k" in
      let t = Var.create "t" and u = Var.create "u" in
      let imm n = Texpr.int_imm n in
      (* in range whatever the sign of [ix] *)
      let load ix =
        let at = Texpr.mod_ (Texpr.add (Texpr.mod_ ix (imm 64)) (imm 64)) (imm 64) in
        Texpr.cast Dtype.I32 (Texpr.load bin at)
      in
      (* non-negative unless it wraps or reads [u] *)
      let rec nonneg vars d =
        if d = 0 || Random.State.int rng 3 = 0 then
          if Random.State.bool rng then Texpr.var (pick vars) else imm (Random.State.int rng 10)
        else
          let a = nonneg vars (d - 1) in
          match Random.State.int rng 6 with
          | 0 | 1 -> Texpr.add a (nonneg vars (d - 1))
          | 2 -> Texpr.mul (imm (1 + Random.State.int rng 50)) a
          | 3 -> Texpr.mul a (nonneg vars (d - 1))
          | 4 -> Texpr.div a (imm (1 + Random.State.int rng 7))
          | _ -> Texpr.mod_ a (imm (1 + Random.State.int rng 9))
      in
      let any vars =
        match Random.State.int rng 3 with
        | 0 -> Texpr.sub (nonneg vars 3) (nonneg vars 3)
        | 1 -> Texpr.add (nonneg vars 3) (load (nonneg vars 2))
        | _ -> Texpr.mul (imm (Random.State.int rng 11 - 5)) (nonneg vars 3)
      in
      let t_value =
        if Random.State.bool rng then nonneg [| i; j |] 3 else load (nonneg [| i; j |] 2)
      in
      let at =
        Texpr.add
          (Texpr.mul (Texpr.add (Texpr.mul (Texpr.var i) (imm e2)) (Texpr.var j)) (imm e3))
          (Texpr.var k)
      in
      let body =
        Stmt.for_ i ~extent:e1
          (Stmt.for_ j ~extent:e2
             (Stmt.Let
                ( t,
                  t_value,
                  Stmt.for_ k ~extent:e3
                    (Stmt.Let
                       ( u,
                         any [| i; j; k; t |],
                         Stmt.Store (bout, at, Texpr.add (Texpr.var u) (any [| i; j; k; t; u |]))
                       )) )))
      in
      differential ~seed
        { Lower.fn_name = Printf.sprintf "emit_random_terms_%d" seed;
          fn_tensors = [ (tout, bout); (tin, bin) ]; fn_output = bout;
          fn_iter_vars = [ (0, i) ]; fn_body = body };
      true)

(* i32 -> bf16 around 2^24 + 2^16, where the f32 step lands on a bf16
   tie: the inline rounding must break it like Value does. *)
let test_bf16_ties () =
  differential
    (scalar_func ~name:"emit_bf16_ties" ~dtype:Dtype.Bf16 ~n:24 (fun buf i ->
         let x = Texpr.add (Texpr.int_imm ((1 lsl 24) + (1 lsl 16) - 8)) (Texpr.var i) in
         Stmt.Store (buf, Texpr.var i, Texpr.cast Dtype.Bf16 x)))

(* ---------- arena-backed views ---------- *)

(* The emitted ABI passes per-tensor offsets, so views execute natively;
   the closure engine rejects them, so the oracle is the tree-walker.
   Comparing whole arenas (not just the output window) also proves the
   emitted kernel never writes outside its view. *)
let test_emit_view_bindings () =
  let n = 32 in
  let tin = Tensor.create ~name:"vin" ~shape:[ n ] Dtype.I32 in
  let bin = Buffer.of_tensor tin in
  let tout = Tensor.create ~name:"vout" ~shape:[ n ] Dtype.I32 in
  let bout = Buffer.of_tensor tout in
  let i = Var.create "i" in
  let body =
    Stmt.for_ i ~extent:n
      (Stmt.Store
         ( bout,
           Texpr.var i,
           Texpr.add
             (Texpr.mul (Texpr.load bin (Texpr.var i)) (Texpr.int_imm 3))
             (Texpr.var i) ))
  in
  let func =
    { Lower.fn_name = "emit_view"; fn_tensors = [ (tout, bout); (tin, bin) ];
      fn_output = bout; fn_iter_vars = [ (0, i) ]; fn_body = body }
  in
  let fresh () =
    let arena = Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ (2 * n) + 16 ] in
    let vin = Ndarray.view arena ~offset:7 ~dtype:Dtype.I32 ~shape:[ n ] in
    let vout =
      Ndarray.view arena ~offset:(7 + n + 4) ~dtype:Dtype.I32 ~shape:[ n ]
    in
    Ndarray.fill vin (fun ix -> Value.of_int Dtype.I32 ((ix.(0) * 13) - 64));
    (arena, [ (tout, vout); (tin, vin) ])
  in
  let arena_ref, b_ref = fresh () in
  Interp.run func ~bindings:b_ref;
  let arena_emit, b_emit = fresh () in
  check_bool "bindings are genuine views" true
    (List.for_all (fun (_, a) -> Ndarray.is_view a) b_emit);
  let before = Emit_cache.last_fallback () in
  Emit_cache.run func ~bindings:b_emit;
  check_bool "view run: whole arenas bit-identical" true
    (Ndarray.equal arena_ref arena_emit);
  if emit_available then
    check_bool "disjoint views run emitted" true (Emit_cache.last_fallback () == before)

(* One array bound as both input and output: [in.(0)], hoisted as loop
   invariant, is overwritten by the first store.  The run must take the
   fallback and agree with the tree-walker on the shared array. *)
let test_emit_aliased_bindings () =
  let func =
    map_func ~name:"emit_alias" ~n:32 ~src_dtype:Dtype.I32 ~dst_dtype:Dtype.I32
      (fun ~src ~dst ~n i ->
        Stmt.for_ i ~extent:n
          (Stmt.Store
             ( dst,
               Texpr.var i,
               Texpr.add (Texpr.load src (Texpr.int_imm 0)) (Texpr.load dst (Texpr.var i)) )))
  in
  let shared () =
    let t, _ = List.hd func.Lower.fn_tensors in
    let arr = Ndarray.random_for_tensor ~seed:5 t in
    (arr, List.map (fun (t, _) -> (t, arr)) func.Lower.fn_tensors)
  in
  let a_ref, b_ref = shared () in
  Interp.run func ~bindings:b_ref;
  let a_emit, b_emit = shared () in
  Emit_cache.run func ~bindings:b_emit;
  check_bool "aliased run bit-identical to interp" true (Ndarray.equal a_ref a_emit);
  match Emit_cache.last_fallback () with
  | Some d ->
    check_bool "fallback names the overlap" true
      ((not emit_available) || mentions d.Diag.detail "overlap")
  | None -> Alcotest.fail "aliased bindings left no fallback diagnostic"

(* ---------- fallback ladder ---------- *)

(* A kernel handed an array shorter than its binding's offset plus the
   buffer's size raises at entry, before any access: out.(i) <- i runs
   first in the kernel, yet [out] keeps its contents.  Through
   [Emit_cache.run], a binding shorter than its buffer falls back with a
   diagnostic and raises the closure engine's own error. *)
let test_emit_overrun () =
  let func =
    map_func ~name:"emit_overrun" ~n:32 ~src_dtype:Dtype.I32 ~dst_dtype:Dtype.I32
      (fun ~src ~dst ~n i ->
        let j = Var.create "j" in
        Stmt.seq
          [ Stmt.for_ j ~extent:n (Stmt.Store (dst, Texpr.var j, Texpr.var j));
            Stmt.for_ i ~extent:n
              (Stmt.Store
                 ( dst,
                   Texpr.var i,
                   Texpr.add (Texpr.load dst (Texpr.var i)) (Texpr.load src (Texpr.var i)) ))
          ])
  in
  (match Emit_cache.load ~signature:"test|overrun" func with
   | Error e -> if emit_available then Alcotest.fail ("overrun kernel not loaded: " ^ e)
   | Ok k ->
     let cells = Array.make 2 [||] and offs = Array.make 2 0 in
     let out = Array.make 32 7 in
     List.iteri
       (fun slot (s : Binding.slot) ->
         if Buffer.equal s.Binding.sl_buf func.Lower.fn_output then cells.(s.Binding.sl_cell) <- out
         else begin
           (* the window [8, 40) of a 36-cell array *)
           cells.(s.Binding.sl_cell) <- Array.make 36 1;
           offs.(slot) <- 8
         end)
       k.Emit_cache.k_plan.Emit.p_layout.Binding.l_slots;
     let serial n f = for x = 0 to n - 1 do f x done in
     (match k.Emit_cache.k_fn [||] cells [||] offs serial with
      | () -> Alcotest.fail "the overrun kernel ran"
      | exception Unit_emit_hook.Out_of_window (b, what) ->
        Alcotest.(check int) "the input binding overruns" 1 b;
        check_bool "what names the window" true (mentions what "window [8, 40)"));
     check_bool "no access before the raise" true (Array.for_all (( = ) 7) out));
  let tout, _ = List.hd func.Lower.fn_tensors and tin, _ = List.nth func.Lower.fn_tensors 1 in
  let run engine =
    let bindings =
      [ (tout, Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 32 ]);
        (tin, Ndarray.zeros ~dtype:Dtype.I32 ~shape:[ 24 ]) ]
    in
    match engine ~bindings with
    | () -> Ok ()
    | exception Interp.Runtime_error e -> Error e
  in
  let before = Emit_cache.last_fallback () in
  let emitted = run (Emit_cache.run func) in
  check_bool "a fallback diagnostic" true (Emit_cache.last_fallback () != before);
  check_bool "the closure engine's error" true (emitted = run (Compile.run func));
  check_bool "an error" true (Result.is_error emitted)

(* f16 has no native carrier, so the emitter refuses it while the
   Value-backed engines handle it fine: the run must degrade to the
   closure engine (bit-identically) and surface a structured Diag.Emit
   diagnostic through last_fallback. *)
let test_emit_fallback_diag () =
  let func =
    scalar_func ~name:"emit_f16" ~dtype:Dtype.F16 ~n:16 (fun buf i ->
        Stmt.Store
          ( buf,
            Texpr.var i,
            Texpr.mul
              (Texpr.cast Dtype.F16 (Texpr.var i))
              (Texpr.float_imm ~dtype:Dtype.F16 0.25) ))
  in
  differential ~emitted:false func;
  match Emit_cache.last_fallback () with
  | Some d ->
    check_bool "fallback diagnostic carries the emit rule" true
      (d.Diag.rule = Diag.Emit)
  | None -> Alcotest.fail "unsupported kernel left no fallback diagnostic"

(* ---------- microkernels ---------- *)

(* The top-level tile functions of rendered source, each as its text. *)
let tile_functions src =
  List.fold_left
    (fun chunks line ->
      match chunks with
      | _ when String.starts_with ~prefix:"let " line -> [ line ] :: chunks
      | c :: rest -> (line :: c) :: rest
      | [] -> [])
    [] (String.split_on_char '\n' src)
  |> List.rev_map (fun c -> String.concat "\n" (List.rev c))
  |> List.filter (String.starts_with ~prefix:"let tile")

(* Every kernels row keeps its register tile in a function of its own
   whose innermost loop, the reduction it steps by pointer, divides
   nothing, takes no remainder and multiplies by no loop variable. *)
let test_microkernels_rendered () =
  List.iter
    (fun index ->
      let what = Printf.sprintf "t%d" index in
      let (_, src), counts =
        counted [ "emit.tiles_outlined" ] (fun () -> Emit.render (table1_func index))
      in
      Alcotest.(check (list int)) (what ^ ": one tile outlined") [ 1 ] counts;
      let fns = tile_functions src in
      Alcotest.(check int) (what ^ ": one tile function") 1 (List.length fns);
      let fn = List.hd fns in
      let loop_vars =
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' (String.trim l) with
            | "for" :: v :: _ -> Some v
            | _ -> None)
          (String.split_on_char '\n' fn)
      in
      let loops = innermost_loops fn in
      check_bool (what ^ ": the tile has an innermost loop") true (loops <> []);
      List.iter
        (fun (_, body) ->
          check_bool (what ^ ": no mod in the innermost loop") false (mentions body " mod ");
          check_bool (what ^ ": no division in the innermost loop") false (mentions body " / ");
          List.iter
            (fun v ->
              check_bool
                (Printf.sprintf "%s: no product with %s in the innermost loop" what v)
                false
                (mentions body ("(" ^ v ^ " * ") || mentions body (" * " ^ v ^ ")")))
            loop_vars)
        loops)
    kernel_rows

(* A register-tile nest: [c] columns of [lanes] accumulators in [out],
   each the sum over the reduction loops [reds] (extents) and [k] of
   [a[(c, reds, k)] * w[(reds, lane, k)]].  A [Let] of the flattened
   reduction index sits between the reductions and the lanes, so the
   lanes are not part of the reduction chain.  [update] combines a
   cell's old value with the product (default: their sum).  Each
   reduction step's weights are [lanes + w_pad] rows of [k]; the last
   [w_pad] rows go unread. *)
let tile_nest ?(update = Texpr.add) ?(w_pad = 0) ~name ~acc ~a_dtype ~w_dtype ~cols ~lanes ~k reds =
  let red = List.fold_left ( * ) 1 reds in
  let ta = Tensor.create ~name:"a" ~shape:[ cols * red * k ] a_dtype in
  let tw = Tensor.create ~name:"w" ~shape:[ red * (lanes + w_pad) * k ] w_dtype in
  let tout = Tensor.create ~name:"out" ~shape:[ cols * lanes ] acc in
  let ba = Buffer.of_tensor ta and bw = Buffer.of_tensor tw and bout = Buffer.of_tensor tout in
  let c = Var.create "c" and l = Var.create "l" and kk = Var.create "kk" and t = Var.create "t" in
  let rs = List.map (fun _ -> Var.create "r") reds in
  let imm n = Texpr.int_imm n and v = Texpr.var in
  let flat =
    List.fold_left2 (fun acc r e -> Texpr.add (Texpr.mul acc (imm e)) (v r)) (imm 0) rs reds
  in
  let at = Texpr.add (Texpr.mul (v c) (imm lanes)) (v l) in
  let ia = Texpr.add (Texpr.mul (Texpr.add (Texpr.mul (v c) (imm red)) (v t)) (imm k)) (v kk) in
  let iw =
    Texpr.add (Texpr.mul (Texpr.add (Texpr.mul (v t) (imm (lanes + w_pad))) (v l)) (imm k)) (v kk)
  in
  let operand b ix = if Dtype.equal b.Buffer.dtype acc then Texpr.load b ix else Texpr.cast acc (Texpr.load b ix) in
  let update =
    Stmt.Store (bout, at, update (Texpr.load bout at) (Texpr.mul (operand ba ia) (operand bw iw)))
  in
  let inner = Stmt.Let (t, flat, Stmt.for_ l ~extent:lanes (Stmt.for_ kk ~extent:k update)) in
  let body = Stmt.for_ c ~extent:cols (List.fold_right2 (fun r e s -> Stmt.for_ r ~extent:e s) rs reds inner) in
  { Lower.fn_name = name; fn_tensors = [ (tout, bout); (ta, ba); (tw, bw) ]; fn_output = bout;
    fn_iter_vars = [ (0, c) ]; fn_body = body }

(* Random register-tile nests with 1 or 3 reduction loops and paired
   i8, unpaired i32 or f32 accumulators: each renders as a microkernel
   (packing its lanes when i8) and is bit-identical on the three
   engines.  The fourth case pads each reduction step's i8 weights by
   one row, an odd multiple of the pair distance: the pairs have no
   compact layout, so the lanes stay unpacked.  Every draw builds all
   four cases, each from its own shapes, so each case gets four draws on
   every run. *)
let prop_microkernels_random =
  QCheck.Test.make ~name:"random register-tile nests" ~count:4 QCheck.small_nat (fun seed ->
      List.for_all
        (fun case ->
          let rng = Random.State.make [| seed; case |] in
          let pick a = a.(Random.State.int rng (Array.length a)) in
          let reds =
            if Random.State.bool rng then [ pick [| 3; 17; 40 |] ]
            else [ pick [| 2; 3 |]; pick [| 5; 17 |]; pick [| 2; 3 |] ]
          in
          let lanes = pick [| 2; 4; 8 |] and k = pick [| 1; 2; 4 |] and cols = pick [| 2; 3 |] in
          let acc, a_dtype, w_dtype, what =
            match case with
            | 0 -> (Dtype.I32, Dtype.U8, Dtype.I8, "paired i8")
            | 1 -> (Dtype.I32, Dtype.I32, Dtype.I32, "unpaired i32")
            | 2 -> (Dtype.F32, Dtype.F32, Dtype.F32, "f32")
            | _ -> (Dtype.I32, Dtype.U8, Dtype.I8, "padded i8")
          in
          (* three columns: enough reuse that only the layout stops packing *)
          let w_pad, cols = if case = 3 then (1, 3) else (0, cols) in
          let func =
            tile_nest ~name:(Printf.sprintf "microkernel_%d_%d" seed case) ~w_pad ~acc ~a_dtype
              ~w_dtype ~cols ~lanes ~k reds
          in
          let names = [ "emit.tiles_outlined"; "emit.lanes_packed" ] in
          let _, counts = counted names (fun () -> Emit.render func) in
          let outlined, packed = match counts with [ o; p ] -> (o, p) | _ -> (0, 0) in
          check_bool (what ^ ": outlined") true (outlined = 1);
          check_bool (what ^ ": lanes packed iff i8") (case = 0) (packed > 0);
          differential ~seed func;
          true)
        [ 0; 1; 2; 3 ])

(* Weights whose reduction steps are padded by one row have no compact
   pairs: the tile pairs up but stays unpacked, bit-identical. *)
let test_padded_weights () =
  let func =
    tile_nest ~name:"padded_weights" ~w_pad:1 ~acc:Dtype.I32 ~a_dtype:Dtype.U8
      ~w_dtype:Dtype.I8 ~cols:3 ~lanes:4 ~k:2 [ 3; 5 ]
  in
  let _, counts = counted [ "emit.register_tiles"; "emit.lanes_packed" ] (fun () -> Emit.render func) in
  Alcotest.(check (list int)) "register tile, no packed pair" [ 1; 0 ] (List.map (Stdlib.min 1) counts);
  differential func;
  (* the same nest unpadded packs *)
  let func =
    tile_nest ~name:"unpadded_weights" ~acc:Dtype.I32 ~a_dtype:Dtype.U8 ~w_dtype:Dtype.I8
      ~cols:3 ~lanes:4 ~k:2 [ 3; 5 ]
  in
  let _, counts = counted [ "emit.lanes_packed" ] (fun () -> Emit.render func) in
  check_counted "unpadded" [ "emit.lanes_packed" ] counts

(* Accumulating is a register-tile proof condition: a nest of the
   register-tile shape whose update is [tile[c] = tile[c] * 3 + x] gets
   an array tile instead. *)
let test_non_accumulating_tile () =
  let func =
    tile_nest ~name:"tile_times_three"
      ~update:(fun old x -> Texpr.add (Texpr.mul old (Texpr.int_imm 3)) x)
      ~acc:Dtype.I32 ~a_dtype:Dtype.I32 ~w_dtype:Dtype.I32 ~cols:2 ~lanes:4 ~k:2 [ 17 ]
  in
  let names = [ "emit.register_tiles"; "emit.tiles_outlined"; "emit.tiles_promoted" ] in
  let _, counts = counted names (fun () -> Emit.render func) in
  (match counts with
   | [ registers; outlined; promoted ] ->
     Alcotest.(check int) "no register tile" 0 registers;
     Alcotest.(check int) "no microkernel" 0 outlined;
     check_bool "an array tile" true (promoted > 0)
   | _ -> assert false);
  differential func

(* An f32 tile whose longest reduction loop is outermost keeps its
   order.  Over reductions (17, 2), the second term is 2^24 and every
   other is 1: in the nest's order the sum reaches 2^24 + 1, which
   rounds to 2^24, and each later 1 rounds away again, so it ends at
   2^24.  With the 17-trip loop innermost, 17 ones would come first and
   the sum would end at 2^24 + 16. *)
let test_microkernel_f32_order () =
  let func =
    tile_nest ~name:"microkernel_f32_order" ~acc:Dtype.F32 ~a_dtype:Dtype.F32
      ~w_dtype:Dtype.F32 ~cols:2 ~lanes:2 ~k:1 [ 17; 2 ]
  in
  let _, counts = counted [ "emit.tiles_outlined" ] (fun () -> Emit.render func) in
  Alcotest.(check (list int)) "outlined" [ 1 ] counts;
  let run engine =
    let bindings =
      List.map
        (fun ((t : Tensor.t), (b : Buffer.t)) ->
          let arr = Ndarray.of_tensor_zeros t in
          if not (Buffer.equal b func.Lower.fn_output) then
            Ndarray.fill arr (fun ix ->
                Value.of_float Dtype.F32
                  (if t.Tensor.name = "a" && ix.(0) mod 34 = 1 then 16777216.0 else 1.0));
          (t, arr))
        func.Lower.fn_tensors
    in
    engine func ~bindings;
    snd (List.hd bindings)
  in
  let reference = run Interp.run in
  let before = Emit_cache.last_fallback () in
  let emitted = run (fun f ~bindings -> Emit_cache.run f ~bindings) in
  if emit_available then
    check_bool "ran emitted" true (Emit_cache.last_fallback () == before);
  check_bool "emitted = interp" true (Ndarray.equal reference emitted);
  Alcotest.(check (float 0.0)) "sum in the nest's order" 16777216.0
    (Value.to_float (Ndarray.get reference [| 0 |]))

(* ---------- qcheck: engine differential across workloads and ISAs ---------- *)

(* Randomized shapes through the full pipeline on all three instruction
   sets; every tensorized kernel must be bit-identical across the three
   engines.  Each case runs the x86 conv, whose register tile must pack
   lane pairs, and one more kernel: an Arm conv (udot or the i16 MLA) or
   an x86 dense layer, whose register tile has no weight reuse to pack
   for.  Shapes the pipeline rejects as non-tensorizable are vacuously
   true. *)
let prop_engines_bit_identical =
  QCheck.Test.make ~name:"emitted = compiled = interp across ISAs" ~count:9
    QCheck.(
      quad (int_range 1 3) (int_range 1 2) (int_range 4 6) (int_range 0 2))
    (fun (co, ko, hw, other) ->
      let wl =
        { Workload.c = co * 16; h = hw; w = hw; k = ko * 16; kernel = 3;
          stride = 1; padding = 1; groups = 1 }
      in
      let run ~packs seed kernel =
        match kernel () with
        | exception Invalid_argument _ -> ()
        | compiled ->
          let func = compiled.Pipeline.c_tuned.Cpu_tuner.t_func in
          if packs then begin
            let _, counts = counted register_names (fun () -> Emit.render func) in
            check_counted func.Lower.fn_name register_names counts
          end;
          differential ~seed func
      in
      let seed = co + (10 * ko) + (100 * hw) in
      run ~packs:true seed (fun () -> Pipeline.conv_compiled_x86 wl);
      run ~packs:false (seed + (1000 * (other + 1))) (fun () ->
          match other with
          | 0 -> Pipeline.conv_compiled_arm wl
          | 1 -> Pipeline.conv_compiled_arm ~intrin:"neon.mla.i16" wl
          | _ ->
            Pipeline.compiled Pipeline.X86
              (Workload.Fc { Workload.d_k = co * 64; d_units = ko * 16 }));
      true)

(* ---------- zoo: smallest real layers under all three engines ---------- *)

(* The tree-walking oracle bounds what is affordable here, so the zoo is
   represented by its smallest real conv (squeezenet) and dense
   (resnet18) workloads — genuine model layers, not synthetic shapes. *)
let smallest_zoo_conv () =
  List.concat_map
    (fun (_, build) ->
      List.map fst (Unit_models.Zoo.conv_workloads (build ())))
    Unit_models.Zoo.all
  |> List.filter (fun (wl : Workload.conv2d) -> wl.Workload.groups = 1)
  |> fun wls ->
  List.fold_left
    (fun best wl ->
      if Workload.macs (Workload.Conv wl) < Workload.macs (Workload.Conv best)
      then wl
      else best)
    (List.hd wls) (List.tl wls)

let smallest_zoo_dense () =
  List.concat_map
    (fun (_, build) ->
      List.map fst (Unit_models.Zoo.dense_workloads (build ())))
    Unit_models.Zoo.all
  |> fun wls ->
  List.fold_left
    (fun best wl ->
      if Workload.macs (Workload.Fc wl) < Workload.macs (Workload.Fc best)
      then wl
      else best)
    (List.hd wls) (List.tl wls)

let test_emit_zoo_conv () =
  let compiled = Pipeline.conv_compiled_x86 (smallest_zoo_conv ()) in
  differential compiled.Pipeline.c_tuned.Cpu_tuner.t_func

let test_emit_zoo_dense () =
  let compiled = Pipeline.compiled Pipeline.Arm (Workload.Fc (smallest_zoo_dense ())) in
  differential compiled.Pipeline.c_tuned.Cpu_tuner.t_func

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "emit"
    [ ( "hand-built",
        [ Alcotest.test_case "arith" `Quick test_emit_arith;
          Alcotest.test_case "narrow wrap" `Quick test_emit_narrow_wrap;
          Alcotest.test_case "float cast" `Quick test_emit_float_cast_chain;
          Alcotest.test_case "let/alloc/if" `Quick test_emit_let_alloc_if;
          Alcotest.test_case "arena-backed views" `Quick
            test_emit_view_bindings;
          Alcotest.test_case "aliased bindings fall back" `Quick
            test_emit_aliased_bindings;
          Alcotest.test_case "i8 scalar-cell chain" `Quick (cell_chain Dtype.I8 113);
          Alcotest.test_case "i16 scalar-cell chain" `Quick (cell_chain Dtype.I16 3001);
          Alcotest.test_case "i32 scalar-cell chain" `Quick
            (cell_chain Dtype.I32 1_000_003);
          Alcotest.test_case "u8 negative intermediate" `Quick test_emit_u8_negative;
          Alcotest.test_case "bool chain wraps per op" `Quick test_emit_bool_chain;
          Alcotest.test_case "widening cast of raw sum" `Quick test_emit_widening_cast;
          Alcotest.test_case "let in unrolled copies" `Quick test_emit_unrolled_let;
          Alcotest.test_case "i8 div by literal" `Quick (test_emit_div_literal Dtype.I8);
          Alcotest.test_case "i32 div by literal" `Quick (test_emit_div_literal Dtype.I32);
          Alcotest.test_case "guarded load not hoisted" `Quick test_emit_guarded_load;
          Alcotest.test_case "stored buffer load not hoisted" `Quick
            test_emit_stored_buffer_load;
          Alcotest.test_case "fallback diagnostic" `Quick
            test_emit_fallback_diag;
          Alcotest.test_case "window overrun raises at entry" `Quick test_emit_overrun
        ] );
      ( "tiles",
        [ Alcotest.test_case "smoke Table I row" `Quick test_tile_table1;
          Alcotest.test_case "scalar reference: one-element tile" `Quick
            test_tile_scalar_reference;
          Alcotest.test_case "raw i32 sum wraps at copy-out" `Quick test_tile_i32_overflow;
          Alcotest.test_case "index varies with the loop" `Quick test_tile_index_varies;
          Alcotest.test_case "overlapping or non-dense offsets" `Quick test_tile_not_dense;
          Alcotest.test_case "index through a wrapping cast" `Quick test_tile_wrapping_cast;
          Alcotest.test_case "store under an If" `Quick test_tile_store_under_if;
          Alcotest.test_case "load in a Select branch" `Quick test_tile_load_in_select;
          Alcotest.test_case "tile above the cap" `Quick test_tile_above_cap
        ] );
      ( "registers",
        [ Alcotest.test_case "Table I rows at smoke scale" `Quick test_register_table1;
          Alcotest.test_case "deep dense stays unpacked" `Quick test_register_deep_dense;
          Alcotest.test_case "columns sharing cells keep the array" `Quick
            test_register_shared_columns
        ] );
      ( "pairs",
        [ Alcotest.test_case "pack layout" `Quick test_pack_layout;
          Alcotest.test_case "pack arguments" `Quick test_pack_invalid;
          Alcotest.test_case "padded weights stay unpacked" `Quick test_padded_weights;
          Alcotest.test_case "packed runs at once" `Quick test_pack_concurrent;
          Alcotest.test_case "copy-out stores" `Quick test_first_writer_stored;
          Alcotest.test_case "split reduction reads back" `Quick test_first_writer_split;
          Alcotest.test_case "non-zero init reads back" `Quick test_first_writer_nonzero;
          Alcotest.test_case "peeked init reads back" `Quick test_first_writer_peeked
        ] );
      ( "hoisting",
        [ Alcotest.test_case "kernels rows hoisted" `Quick test_hoisting_rendered;
          Alcotest.test_case "kernels rows unchecked" `Quick test_bounds_rendered;
          Alcotest.test_case "index hoisting exact" `Quick test_hoisting_exact;
          Alcotest.test_case "unproven index stays" `Quick test_hoisting_unproven;
          Alcotest.test_case "let rebound from itself" `Quick test_hoisting_rebound_let;
          Alcotest.test_case "bf16 ties round as Value" `Quick test_bf16_ties
        ]
        @ qcheck [ prop_hoisting_random; prop_window_random ] );
      ( "outlined",
        [ Alcotest.test_case "kernels rows outlined" `Quick test_microkernels_rendered;
          Alcotest.test_case "f32 tile keeps its order" `Quick test_microkernel_f32_order;
          Alcotest.test_case "tile * 3 + x keeps the array" `Quick
            test_non_accumulating_tile
        ]
        @ qcheck [ prop_microkernels_random ] );
      ( "pipeline",
        [ Alcotest.test_case "x86 conv" `Quick test_emit_pipeline_x86;
          Alcotest.test_case "arm conv" `Quick test_emit_pipeline_arm;
          Alcotest.test_case "rule counters" `Quick test_emit_rule_counters;
          Alcotest.test_case "baked artifact serves a run" `Quick test_bake_serves_run
        ]
        @ qcheck [ prop_engines_bit_identical ] );
      ( "zoo",
        [ Alcotest.test_case "smallest conv (squeezenet)" `Slow
            test_emit_zoo_conv;
          Alcotest.test_case "smallest dense (resnet18)" `Slow
            test_emit_zoo_dense
        ] )
    ]
