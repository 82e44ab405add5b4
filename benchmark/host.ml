(* What the host itself can do, measured in plain OCaml on one domain
   (like every measured pool): the attainable integer multiply-accumulate
   rate and streaming-copy bandwidth.  They are the denominators of the
   emitted kernels' achieved-vs-peak fraction (an empirical roofline).
   [probe] is the work that tracks the host's speed through a run. *)

(* Four independent accumulators over an L1-resident pair of int arrays,
   so the loop is bound by multiply-add issue, not by memory. *)
let mac_kernel ~reps =
  let n = 1024 in
  let a = Array.init n (fun i -> (i * 7) land 127) in
  let b = Array.init n (fun i -> (i * 13) land 127) in
  let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
  for _ = 1 to reps do
    let i = ref 0 in
    while !i < n do
      let j = !i in
      s0 := !s0 + (Array.unsafe_get a j * Array.unsafe_get b j);
      s1 := !s1 + (Array.unsafe_get a (j + 1) * Array.unsafe_get b (j + 1));
      s2 := !s2 + (Array.unsafe_get a (j + 2) * Array.unsafe_get b (j + 2));
      s3 := !s3 + (Array.unsafe_get a (j + 3) * Array.unsafe_get b (j + 3));
      i := j + 4
    done
  done;
  (n * reps, !s0 + !s1 + !s2 + !s3)

let copy_kernel ~reps =
  let n = 1 lsl 21 in
  let src = Array.init n (fun i -> i) in
  let dst = Array.make n 0 in
  for _ = 1 to reps do
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get src i)
    done
  done;
  (* bytes read plus bytes written, 8 per element each way *)
  (16 * n * reps, dst.(n - 1))

(* Best of three runs, in work units per second. *)
let rate kernel =
  let once () =
    let t0 = Unix.gettimeofday () in
    let work, _ = kernel () in
    float_of_int work /. (Unix.gettimeofday () -. t0)
  in
  List.fold_left Float.max 0.0 (List.init 3 (fun _ -> once ()))

let peak_int_gmacs ~reps = rate (fun () -> mac_kernel ~reps) /. 1e9
let stream_gbs ~reps = rate (fun () -> copy_kernel ~reps) /. 1e9

(* The host-speed probe (see [Ctx.probe]): fixed plain-OCaml work of the
   kind the program does — hashing, sorting, building and folding lists,
   allocating throughout — sharing no code with the program under test.
   A multiply-accumulate loop tracks a shared host's slow phases poorly:
   over 20 s windows of a noisy 2-vCPU VM it left 17% of a tuning loop's
   variation unexplained (IQR/median of the ratio), this probe 3%. *)
let probe () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i * 7919 mod 4096) (string_of_int i)
  done;
  let a = Array.init 30_000 (fun i -> i * 7919 mod 10_007) in
  Array.sort compare a;
  let l = List.init 20_000 float_of_int in
  ignore
    (Sys.opaque_identity
       (h, a, List.fold_left ( +. ) 0.0 (List.rev_map (fun x -> x *. 1.5) l)))

(* Peak resident set (VmHWM) in MiB; the GC's top heap where /proc is
   unavailable. *)
let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
              (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
               | Some kb -> Some (float_of_int kb /. 1024.0)
               | None -> scan ())
          in
          scan ())
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
