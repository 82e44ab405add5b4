(* The benchmark's one command.

     main.exe --workload W --seed N [--seconds S] [--trace 0|1]
              [--scale full|smoke] [--out F.jsonl] [--trace-dir DIR]
     main.exe all --seed N [same options] [W ...]
     main.exe compare A.jsonl B.jsonl
     main.exe goldens

   A run sets the workload up, warms it, measures it for S seconds,
   checks every output, prints one line per operation class and metric,
   and ends with one JSON line: {"correct", "attempted", "failed",
   "metrics"}.  Untraced runs report the end-to-end metrics; traced runs
   (--trace 1) the per-layer ones, plus a Chrome trace and a table of
   per-span self times in DIR.  See README.md. *)

module Obs = Unit_obs.Obs
module Json = Unit_obs.Json

let workloads =
  [ ("kernels", Wl_kernels.run); ("models", Wl_models.run); ("compile", Wl_compile.run);
    ("serve", Wl_serve.run) ]

let work_root = ".benchmark"

type options = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable scale : Ctx.scale;
  mutable out : string option;
  mutable trace_dir : string;
  mutable rest : string list;
}

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit 2)
    fmt

let finite name v =
  if Float.is_finite v then v
  else begin
    prerr_endline (Printf.sprintf "benchmark: %s is not finite; reported as 0" name);
    0.0
  end

(* Times are reported as if measured on a reference host that runs the
   host-speed probe ([Host.probe], see [Ctx.probe]) in 10 ms: a run whose
   probe median is 12 ms reports its times multiplied by 10/12. *)
let reference_probe_s = 0.010

let normalize ~factor (m : Metrics.metric) v =
  if String.starts_with ~prefix:"host." m.Metrics.name then v
  else
    match m.Metrics.unit with
    | "s" | "ms" | "us" -> v *. factor
    | "1/s" | "GMAC/s" -> v /. factor
    | _ -> v

let class_rates ctx =
  List.filter_map
    (fun c ->
      match Ctx.samples ctx c with
      | [] -> None
      | xs -> Some (Stats.median xs, float_of_int (List.length xs) /. Stats.sum xs))
    (Ctx.classes ctx)

let end_to_end (ctx : Ctx.t) =
  let per_class = class_rates ctx in
  [ ("setup_s", Stats.median ctx.Ctx.setups);
    ("latency_ms", Stats.geomean (List.map fst per_class) *. 1e3);
    ( "throughput_per_s",
      match ctx.Ctx.throughput with
      | Some r -> r
      | None -> Stats.geomean (List.map snd per_class) );
    ("peak_rss_mb", Host.peak_rss_mb ()) ]

let per_layer (ctx : Ctx.t) =
  Ctx.set_layer ctx "obs.trace_overhead_ratio"
    (Stats.geomean
       (List.filter_map
          (fun c ->
            match (Ctx.samples ~traced:true ctx c, Ctx.samples ctx c) with
            | [], _ | _, [] -> None
            | traced, untraced -> Some (Stats.median traced /. Stats.median untraced))
          (Ctx.classes ctx)));
  List.map
    (fun (m : Metrics.metric) ->
      (m.Metrics.name, Option.value ~default:0.0 (Hashtbl.find_opt ctx.Ctx.layers m.Metrics.name)))
    Metrics.per_layer

let print_classes (ctx : Ctx.t) =
  Printf.printf "%-26s %6s %12s %12s %12s %16s\n" "operation" "n" "median ms" "q1 ms" "q3 ms"
    "tail ms";
  List.iter
    (fun c ->
      let xs = Ctx.samples ctx c in
      if xs <> [] then begin
        let q1, _, q3 = Stats.quartiles xs in
        let tail =
          match Stats.tail xs with
          | Some (p, v) -> Printf.sprintf "p%g %.3f" p (v *. 1e3)
          | None -> "-"
        in
        Printf.printf "%-26s %6d %12.3f %12.3f %12.3f %16s\n" c (List.length xs)
          (Stats.median xs *. 1e3)
          (q1 *. 1e3) (q3 *. 1e3) tail
      end)
    (Ctx.classes ctx)

let write_trace (ctx : Ctx.t) dir =
  Files.mkdir_p dir;
  let base = Filename.concat dir ctx.Ctx.workload in
  Obs.write_chrome_trace (base ^ ".chrome.json");
  let oc = open_out (base ^ ".layers.txt") in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      Spans.pp_table oc "set-up (self = span minus covered child time)"
        (Spans.aggregate (Spans.with_self (Ctx.setup_spans ctx)));
      output_char oc '\n';
      Spans.pp_table oc "timed phase, traced rounds"
        (Spans.aggregate (Spans.with_self (Ctx.timed_spans ctx))));
  Printf.printf "trace: %s.chrome.json, %s.layers.txt\n" base base

let run_one o =
  let run =
    match List.assoc_opt o.workload workloads with
    | Some run -> run
    | None ->
      die "unknown workload %S (one of %s)" o.workload
        (String.concat ", " (List.map fst workloads))
  in
  (* One domain in every measured pool.  On a shared 2-vCPU Xeon VM the
     second vCPU's availability swings from run to run: at two domains
     the IQR/median of latency_ms over ten runs was 0.11 (kernels) and
     0.10 (serve), at one domain 0.05 and 0.05.  One domain also keeps
     two tensorizations from running at once: the pipeline mints tensor,
     axis, buffer and variable ids from plain counters, and at two
     domains about one compile cycle in seven tuned a different config,
     skipped a job or double-hit the store. *)
  let domains = 1 in
  Unix.putenv "UNIT_DOMAINS" (string_of_int domains);
  let work_dir =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf "%s/work/%s-%d" work_root o.workload (Unix.getpid ()))
  in
  (* ocamlopt and the emitter write their temporaries inside the checkout *)
  let tmp = Filename.concat work_dir "tmp" in
  Files.mkdir_p tmp;
  Filename.set_temp_dir_name tmp;
  Unix.putenv "TMPDIR" tmp;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unit_isa.Defs.ensure_registered ();
  let seconds =
    match (o.seconds, o.scale) with
    | Some s, _ -> s
    | None, Ctx.Full -> 20.0
    | None, Ctx.Smoke -> 0.0
  in
  let ctx =
    Ctx.create ~workload:o.workload ~seed:o.seed ~seconds ~trace:o.trace ~scale:o.scale
      ~domains ~work_dir
  in
  if o.trace then begin
    Obs.reset ();
    let full = o.scale = Ctx.Full in
    Ctx.set_layer ctx "host.peak_int_gmacs"
      (Host.peak_int_gmacs ~reps:(if full then 40_000 else 400));
    Ctx.set_layer ctx "host.stream_gbs" (Host.stream_gbs ~reps:(if full then 8 else 1));
    Obs.set_enabled true
  end;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Files.rm_rf work_dir)
    (fun () -> run ctx);
  print_classes ctx;
  let probe_s = Stats.median ctx.Ctx.probes in
  let factor = reference_probe_s /. probe_s in
  Printf.printf
    "host probe median %.3f ms over %d: times below are scaled by %.4f to the %.0f ms \
     reference host (raw value last)\n"
    (probe_s *. 1e3) (List.length ctx.Ctx.probes) factor (reference_probe_s *. 1e3);
  let values = if o.trace then per_layer ctx else end_to_end ctx in
  let metrics =
    List.map
      (fun (name, raw) ->
        let m = match Metrics.find name with Some m -> m | None -> assert false in
        let v = finite name (normalize ~factor m raw) in
        Printf.printf "%-34s %16.6g %-7s %16.6g\n" name v m.Metrics.unit raw;
        (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Metrics.unit) ]))
      values
  in
  if o.trace then write_trace ctx o.trace_dir;
  let result =
    Json.Obj
      [ ("correct", Json.Bool (ctx.Ctx.failed = 0 && ctx.Ctx.attempted > 0));
        ("attempted", Json.Num (float_of_int ctx.Ctx.attempted));
        ("failed", Json.Num (float_of_int ctx.Ctx.failed));
        ("metrics", Json.Obj metrics) ]
  in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [ ("workload", Json.Str o.workload);
                    ("seed", Json.Num (float_of_int o.seed));
                    ("trace", Json.Bool o.trace);
                    ("result", result) ]));
          output_char oc '\n'))
    o.out;
  print_endline (Json.to_string result)

(* ---- all: each workload in its own process, so set-up time and peak
   memory stay per workload *)

let spec_names o =
  match Json.parse (Files.read "BENCHMARK.json") with
  | Error e -> die "BENCHMARK.json: %s" e
  | Ok j ->
    List.filter_map
      (fun m -> Option.bind (Json.member "name" m) Json.to_str)
      (Option.value ~default:[]
         (Option.bind
            (Json.member (if o.trace then "per_layer" else "end_to_end") j)
            Json.to_list))

let spawn o workload =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int o.seed; "--trace"; (if o.trace then "1" else "0");
      "--scale"; (match o.scale with Ctx.Full -> "full" | Ctx.Smoke -> "smoke");
      "--trace-dir"; o.trace_dir ]
    @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
    @ match o.out with Some f -> [ "--out"; f ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       last := line
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, !last)

let all o =
  let names = if o.rest = [] then List.map fst workloads else o.rest in
  let expected = spec_names o in
  let ok =
    List.for_all
      (fun w ->
        let status, last = spawn o w in
        let problem =
          match (status, Json.parse last) with
          | Unix.WEXITED 0, Ok j ->
            let metrics = Option.value ~default:(Json.Obj []) (Json.member "metrics" j) in
            let missing = List.filter (fun n -> Json.member n metrics = None) expected in
            if Json.member "correct" j <> Some (Json.Bool true) then Some "not correct"
            else if Option.bind (Json.member "failed" j) Json.to_int <> Some 0 then
              Some "failed operations"
            else if missing <> [] then Some ("missing " ^ String.concat ", " missing)
            else None
          | Unix.WEXITED 0, Error e -> Some ("no result line: " ^ e)
          | _ -> Some "exited abnormally"
        in
        match problem with
        | None -> true
        | Some p ->
          prerr_endline (Printf.sprintf "benchmark all: %s: %s" w p);
          false)
      names
  in
  if not ok then exit 1

(* ---- command line *)

let parse argv =
  let o =
    { workload = ""; seed = 1; seconds = None; trace = false; scale = Ctx.Full; out = None;
      trace_dir = Filename.concat work_root "trace"; rest = [] }
  in
  let specs =
    [ ("--workload", Arg.String (fun s -> o.workload <- s), "W  kernels|models|compile|serve");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N  selects the generated inputs");
      ("--seconds", Arg.Float (fun s -> o.seconds <- Some s), "S  measured time (default 20)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun s -> o.trace <- s = "1"),
        "  1: traced run reporting per-layer metrics" );
      ( "--scale",
        Arg.Symbol
          ([ "full"; "smoke" ], fun s -> o.scale <- (if s = "smoke" then Ctx.Smoke else Ctx.Full)),
        "  smoke: tiny inputs, for the test rule" );
      ("--out", Arg.String (fun f -> o.out <- Some f), "F  append the result to a JSONL file");
      ("--trace-dir", Arg.String (fun d -> o.trace_dir <- d), "DIR  where traced runs write") ]
  in
  let usage =
    "main.exe --workload W --seed N [options] | all [options] [W...] | compare A.jsonl B.jsonl | \
     goldens"
  in
  (try
     Arg.parse_argv ~current:(ref 0) argv specs (fun a -> o.rest <- o.rest @ [ a ]) usage
   with
   | Arg.Bad msg -> die "%s" msg
   | Arg.Help msg ->
     print_string msg;
     exit 0);
  o

let () =
  let argv = Sys.argv in
  let sub = if Array.length argv > 1 then argv.(1) else "" in
  let shift () = Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)) in
  match sub with
  | "all" -> all (parse (shift ()))
  | "compare" ->
    let o = parse (shift ()) in
    (match o.rest with
     | [ a; b ] -> Compare.run ~spec:"BENCHMARK.json" a b
     | _ -> die "compare takes two result files")
  | "goldens" ->
    Unit_isa.Defs.ensure_registered ();
    print_endline (Json.to_string (Wl_models.goldens_json ()))
  | _ ->
    let o = parse argv in
    if o.workload = "" || o.rest <> [] then die "usage: --workload W --seed N (see --help)";
    run_one o
