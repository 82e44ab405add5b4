(* unitd — the UNIT compilation-as-a-service daemon.

   `unitd serve` listens on a Unix-domain socket, frames requests with a
   4-byte length prefix + JSON (Unit_serve.Wire / Protocol), and serves
   them from a pool of OCaml 5 worker domains with a sharded tuning
   store, request coalescing, admission control and graceful drain.
   `unitd call` is the one-shot client; `unitd smoke` is the in-process
   cold+warm cycle the @serve-smoke alias lints. *)

open Cmdliner
module Json = Unit_obs.Json
module Obs = Unit_obs.Obs
module Wire = Unit_serve.Wire
module Protocol = Unit_serve.Protocol
module Server = Unit_serve.Server
module Diag = Unit_tir.Diag
module Pipeline = Unit_core.Pipeline

let () = Unit_isa.Defs.ensure_registered ()

let with_store = Common.with_store ~prog:"unitd"

(* ---------- serve ---------- *)

let serve socket_path domains queue_cap retries store trace trace_out packs =
  if trace || trace_out <> None then Common.enable_tracing ?trace_out ();
  (* preload declarative instruction packs before the first worker can
     touch the registry; later loads arrive as load_isa requests *)
  (match Unit_isadsl.Loader.load_files packs with
   | Ok infos ->
     List.iter
       (fun (info : Unit_isadsl.Loader.pack_info) ->
         Printf.printf "unitd: loaded pack %s (%d instruction(s))\n%!"
           info.Unit_isadsl.Loader.pk_source
           (List.length info.Unit_isadsl.Loader.pk_instructions))
       infos
   | Error ds ->
     List.iter
       (fun d -> prerr_endline ("unitd: " ^ Unit_tir.Diag.to_string d))
       ds;
     exit 1);
  with_store store @@ fun () ->
  if Sys.file_exists socket_path then Unix.unlink socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 64;
  let server = Server.create { Server.domains; queue_cap; retries } in
  let stop = ref false in
  let request_stop _ = stop := true in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
   | _ -> ());
  Printf.printf "unitd: listening on %s (%d domain(s), queue %d)\n%!"
    socket_path domains queue_cap;
  (* accept loop: poll so a Shutdown request or a signal is noticed
     within 200 ms; each connection gets its own (blocking) thread *)
  while not (!stop || Server.draining server) do
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
      let fd, _ = Unix.accept listen_fd in
      ignore
        (Thread.create
           (fun () ->
             Fun.protect
               ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
               (fun () -> Server.serve_connection server fd))
           ())
  done;
  Printf.printf "unitd: draining...\n%!";
  Unix.close listen_fd;
  if Sys.file_exists socket_path then Unix.unlink socket_path;
  Server.drain server;
  Printf.printf "unitd: drained, bye\n%!"

(* ---------- call (one-shot client) ---------- *)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("unitd: " ^ msg);
    exit 1

let call socket_path payload =
  (match Json.parse payload with
   | Ok _ -> ()
   | Error m -> or_die (Error ("request is not valid JSON: " ^ m)));
  print_endline (or_die (Wire.call socket_path payload))

(* ---------- metrics (one-shot scrape client) ---------- *)

(* Scrape a running daemon's metrics and print the Prometheus text body
   (what an HTTP exporter would serve) — pipe it to a file or a
   pushgateway. *)
let metrics socket_path =
  let r = or_die (Protocol.call socket_path Protocol.Metrics) in
  match Option.bind (Json.member "body" r) Json.to_str with
  | Some body -> print_string body
  | None -> or_die (Error "metrics response carries no body")

(* ---------- in-process smokes ---------- *)

(* The prelude both smokes share: run [f] with a sharded store installed
   at [store_dir] (default [default]), emptied first so every run starts
   cold. *)
let with_fresh_store ~default store_dir f =
  let store_dir = Option.value ~default store_dir in
  if Sys.file_exists store_dir then begin
    let rm = Printf.sprintf "rm -rf %s" (Filename.quote store_dir) in
    if Sys.command rm <> 0 then failwith ("cannot clear " ^ store_dir)
  end;
  with_store (Some store_dir) f

(* The result of a smoke request; a failure fails the smoke, naming
   [label]. *)
let ok label = function
  | Protocol.Result r -> r
  | Protocol.Failure (code, m) ->
    failwith
      (Printf.sprintf "%s failed: %s (%s)" label m (Protocol.code_to_string code))

(* ---------- smoke (in-process cold+warm cycle) ---------- *)

(* The @serve-smoke driver: N/2 tune and N/2 run requests for one
   workload against a cold daemon must produce exactly one tuner sweep
   (the trace-lint asserts one tensorize.tune span and a positive
   serve.coalesced counter), then a store-warm cycle must tune nothing at
   all.  The two request kinds coalesce under different keys, so two
   leaders reach the pipeline's kernel memo together and its
   single-flight, not the server's coalescing, keeps the sweep to one.
   The fault hook holds both in-flight leaders until every client has
   submitted, so the assertions are deterministic, not a race we usually
   win. *)
let smoke store_dir trace_out =
  Common.enable_tracing ?trace_out ();
  with_fresh_store ~default:"unitd_smoke_store" store_dir @@ fun () ->
  let clients = 16 in
  let submitted = Atomic.make 0 in
  let fault ~key:_ ~attempt:_ =
    while Atomic.get submitted < clients do
      Thread.delay 0.001
    done
  in
  let server = Server.create ~fault { Server.default_config with domains = 4 } in
  let target = Pipeline.X86 and engine = Pipeline.Compiled in
  let workload =
    Protocol.Conv
      { Unit_graph.Workload.c = 32; h = 8; w = 8; k = 32; kernel = 3;
        stride = 1; padding = 1; groups = 1 }
  in
  let request i =
    if i mod 2 = 0 then Protocol.Tune { target; engine; workload }
    else Protocol.Run { target; engine; workload }
  in
  let fire () =
    let responses =
      Array.make clients (Protocol.Failure (Protocol.Internal, "unset"))
    in
    let threads =
      List.init clients (fun i ->
          Thread.create
            (fun () ->
              Atomic.incr submitted;
              responses.(i) <- Server.submit server (request i))
            ())
    in
    List.iter Thread.join threads;
    Array.iter (fun r -> ignore (ok "request" r : Json.t)) responses
  in
  Printf.printf
    "serve-smoke: cold burst (%d concurrent tunes + %d runs, one workload)\n%!"
    (clients / 2) (clients / 2);
  fire ();
  let fields = Server.stats_fields server in
  let field name = List.assoc name fields in
  if field "coalesced" < 1 then failwith "no request was coalesced";
  if field "overloaded" > 0 then failwith "admission control rejected the burst";
  (* warm cycle: drop the in-memory kernel cache so the second burst
     replays from the sharded store on disk — still zero tuner sweeps *)
  Pipeline.clear_cache ();
  Atomic.set submitted clients;
  Printf.printf "serve-smoke: warm burst (store replay)\n%!";
  fire ();
  (match Server.submit server Protocol.Shutdown with
   | Protocol.Result _ -> ()
   | Protocol.Failure _ -> failwith "shutdown refused");
  (match Server.submit server (request 0) with
   | Protocol.Failure (Protocol.Draining, _) -> ()
   | _ -> failwith "post-shutdown work was not refused as draining");
  Server.drain server;
  Printf.printf "serve-smoke: OK (%d requests, %d coalesced, 1 tune)\n%!"
    (field "requests" + 2) (field "coalesced")

(* ---------- metrics-smoke (in-process observability cycle) ---------- *)

(* The @metrics-smoke driver, all in-process:
   1. boot a daemon core with tracing on and fire a mixed burst (pings,
      stats, tunes, a run, an explain, one structured failure), with one
      tune under a client-supplied trace id;
   2. fetch that trace via a trace request and write the Chrome document
      for `unitc trace-lint --require-span-tagged`;
   3. scrape metrics and validate the exposition format;
   4. check the serve.latency_us histogram's p99 (Obs.hist_stats, what
      /stats, the profile table and the Chrome trace print) lands within
      one power-of-two bucket of the flight recorder's exact window p99. *)
let smoke_trace_id = "metricssmoke-trace"

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let metrics_smoke store_dir trace_file =
  Obs.set_enabled true;
  with_fresh_store ~default:"unitd_metrics_store" store_dir @@ fun () ->
  let server = Server.create { Server.default_config with domains = 2 } in
  let conv c =
    Protocol.Conv
      { Unit_graph.Workload.c; h = 8; w = 8; k = 32; kernel = 3; stride = 1;
        padding = 1; groups = 1 }
  in
  let tune wl =
    Protocol.Tune
      { target = Pipeline.X86; engine = Pipeline.Compiled; workload = wl }
  in
  let expect_ok label resp = ignore (ok label resp : Json.t) in
  Printf.printf "metrics-smoke: mixed burst\n%!";
  expect_ok "ping" (Server.submit server Protocol.Ping);
  expect_ok "stats" (Server.submit server Protocol.Stats);
  let resp, tid =
    Server.submit_traced server ~trace_id:smoke_trace_id (tune (conv 32))
  in
  expect_ok "traced tune" resp;
  if tid <> smoke_trace_id then failwith "server replaced the client trace id";
  expect_ok "tune" (Server.submit server (tune (conv 16)));
  expect_ok "run"
    (Server.submit server
       (Protocol.Run
          { target = Pipeline.X86; engine = Pipeline.Compiled;
            workload = conv 16 }));
  expect_ok "explain"
    (Server.submit server
       (Protocol.Explain { target = Pipeline.X86; workload = conv 16 }));
  (* a deterministic structured failure, so errors_only has a catch *)
  (match
     Server.submit server
       (Protocol.Explain
          { target = Pipeline.X86;
            workload = Protocol.Dense { Unit_graph.Workload.d_k = 8; d_units = 8 }
          })
   with
   | Protocol.Failure (Protocol.Not_applicable, _) -> ()
   | _ -> failwith "dense explain was not refused as not_applicable");
  for _ = 1 to 32 do
    expect_ok "ping" (Server.submit server Protocol.Ping)
  done;
  (* 2. the finished trace, as a client would fetch it *)
  let doc =
    ok "trace fetch" (Server.submit server (Protocol.Trace { id = smoke_trace_id }))
  in
  let oc = open_out trace_file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "metrics-smoke: trace %s written to %s\n%!" smoke_trace_id trace_file;
  (* 3. scrape and validate the exposition *)
  let scrape = ok "metrics" (Server.submit server Protocol.Metrics) in
  let body =
    match Option.bind (Json.member "body" scrape) Json.to_str with
    | Some b -> b
    | None -> failwith "metrics response carries no body"
  in
  (match Unit_obs.Metrics.validate body with
   | Ok () -> ()
   | Error m -> failwith ("metrics exposition invalid: " ^ m));
  List.iter
    (fun family ->
      if not (contains ~needle:family body) then
        failwith ("metrics scrape lacks " ^ family))
    [ "unit_serve_requests"; "unit_serve_queue_depth";
      "unit_serve_latency_us_bucket" ];
  (* 4. exact (flight window) vs bucket-derived (histogram) p99 *)
  let entries = Unit_serve.Flight.entries (Server.flight server) in
  let exact = Unit_serve.Flight.exact_percentile entries 99.0 in
  let bucketed = (Obs.hist_stats (Obs.histogram "serve.latency_us")).Obs.h_p99 in
  if abs (Obs.bucket_index exact - Obs.bucket_index bucketed) > 1 then
    failwith
      (Printf.sprintf
         "p99 disagreement: flight exact %.0fus (bucket %d) vs histogram \
          bucket-derived %.0fus (bucket %d)"
         exact (Obs.bucket_index exact) bucketed (Obs.bucket_index bucketed));
  (* the flight filters, through the protocol *)
  let flight =
    ok "flight"
      (Server.submit server
         (Protocol.Flight { last = Some 8; errors_only = true; slower_than_us = None }))
  in
  (match Option.bind (Json.member "entries" flight) Json.to_list with
   | Some (_ :: _) -> ()
   | _ -> failwith "errors_only flight window is empty");
  Server.drain server;
  Printf.printf
    "metrics-smoke: OK (%d requests; exact p99 %.0fus, bucket-derived p99 \
     %.0fus)\n%!"
    (List.length entries) exact bucketed

(* ---------- cmdliner plumbing ---------- *)

let socket_arg =
  Arg.(
    value
    & opt string "unitd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Sharded tuning-store directory (shard-NN.jsonl files).  Disk \
           hits replay stored configs and skip the tuner sweep; fresh \
           tunings are appended to the owning shard.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Enable tracing; print a summary on exit.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write a Chrome trace on exit.")

let serve_cmd =
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission bound: beyond this many queued jobs, overloaded.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra attempts per transiently-failing job.")
  in
  let isa_packs =
    Arg.(
      value & opt_all string []
      & info [ "isa-pack" ] ~docv:"FILE"
          ~doc:
            "Load a declarative .uisa instruction pack at startup \
             (repeatable); further packs can be loaded at runtime with a \
             load_isa request.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the daemon: length-prefixed JSON requests over a Unix-domain \
          socket, served from a pool of OCaml 5 domains with request \
          coalescing, admission control and graceful drain (SIGINT/SIGTERM \
          or a shutdown request).")
    Term.(
      const serve $ socket_arg $ domains $ queue_cap $ retries $ store_arg
      $ trace_arg $ trace_out_arg $ isa_packs)

let call_cmd =
  let payload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JSON" ~doc:"Request document, e.g. '{\"req\":\"stats\"}'.")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Send one request to a running daemon and print the response.")
    Term.(const call $ socket_arg $ payload)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "In-process cold+warm cycle for @serve-smoke: N concurrent tune \
          and run requests for one workload make exactly one tuner sweep, \
          then a store-warm burst tunes nothing; writes a lintable trace.")
    Term.(const smoke $ store_arg $ trace_out_arg)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running daemon and print its Prometheus text exposition \
          (counters, gauges, and histograms with power-of-two buckets).")
    Term.(const metrics $ socket_arg)

let metrics_smoke_cmd =
  let trace_file =
    Arg.(
      value
      & opt string "unitd_metrics_trace.json"
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:"Where to write the fetched Chrome trace.")
  in
  Cmd.v
    (Cmd.info "metrics-smoke"
       ~doc:
         "In-process observability cycle for @metrics-smoke: a mixed \
          request burst with a client-supplied trace id, the fetched trace \
          written for trace-lint, the metrics scrape validated as \
          Prometheus text exposition, and the bucket-derived p99 checked \
          against the flight recorder's exact p99.")
    Term.(const metrics_smoke $ store_arg $ trace_file)

let () =
  let info =
    Cmd.info "unitd" ~version:"1.0.0"
      ~doc:"UNIT compilation-as-a-service daemon."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ serve_cmd; call_cmd; smoke_cmd; metrics_cmd; metrics_smoke_cmd ]))
