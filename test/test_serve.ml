(* The unitd serve stack: wire framing (including fuzzed hostile byte
   streams), protocol round trips, the sharded tuning store (equivalence
   with the single-file store, migration, corruption degradation), the
   server core (admission control, coalescing, retry schedule, drain),
   and the deterministic soak: thousands of mixed warm/cold requests
   across worker domains with zero duplicate tuner sweeps and responses
   bit-identical to direct pipeline execution. *)

module Json = Unit_obs.Json
module Obs = Unit_obs.Obs
module Wire = Unit_serve.Wire
module Protocol = Unit_serve.Protocol
module Server = Unit_serve.Server
module Handler = Unit_serve.Handler
module Store = Unit_store.Store
module Sharded = Unit_store.Sharded
module Warmup = Unit_store.Warmup
module Pipeline = Unit_core.Pipeline
module Workload = Unit_graph.Workload
module Cpu_tuner = Unit_rewriter.Cpu_tuner
module Ndarray = Unit_codegen.Ndarray

let () = Unit_isa.Defs.ensure_registered ()
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_dir () =
  let path = Filename.temp_file "unit_serve_test" "" in
  Sys.remove path;
  path

let rm_rf path =
  if Sys.file_exists path then
    ignore (Sys.command ("rm -rf " ^ Filename.quote path) : int)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let ok_json = Json.Obj [ ("ok", Json.Bool true) ]

let small_conv ?(c = 16) ?(k = 16) () =
  { Workload.c; h = 8; w = 8; k; kernel = 3; stride = 1; padding = 1;
    groups = 1 }

let tune_table1 i =
  Protocol.Tune
    { target = Pipeline.X86; engine = Pipeline.Compiled;
      workload = Protocol.Table1 i }

(* Poll a server-side condition instead of sleeping blind; failing the
   test beats hanging the suite. *)
let wait_for ?(timeout_s = 10.0) what pred =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout_s do
    Thread.yield ();
    Thread.delay 0.001
  done;
  if not (pred ()) then Alcotest.fail ("timed out waiting for " ^ what)

let stat server name = List.assoc name (Server.stats_fields server)

(* A handler gate: the stub blocks every work request until released, so
   queue/coalescing states are inspected deterministically, not raced. *)
let gated_handler () =
  let m = Mutex.create () and c = Condition.create () in
  let opened = ref false in
  let calls = Atomic.make 0 in
  let release () =
    Mutex.lock m;
    opened := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  let handle _req =
    Atomic.incr calls;
    Mutex.lock m;
    while not !opened do
      Condition.wait c m
    done;
    Mutex.unlock m;
    ok_json
  in
  (handle, release, calls)

let submit_async server req =
  let result = ref (Protocol.Failure (Protocol.Internal, "unset")) in
  let th = Thread.create (fun () -> result := Server.submit server req) () in
  (th, result)

(* ---------- wire framing ---------- *)

let test_wire_round_trip () =
  let r, w = Unix.pipe () in
  Wire.write_frame w "{\"req\":\"ping\"}";
  Wire.write_frame w "";
  Wire.write_frame w (String.make 4096 'x');
  Unix.close w;
  (match Wire.read_frame r with
   | Ok p -> check_string "payload survives framing" "{\"req\":\"ping\"}" p
   | Error e -> Alcotest.fail (Wire.error_to_string e));
  (match Wire.read_frame r with
   | Ok p -> check_string "empty payload is a valid frame" "" p
   | Error e -> Alcotest.fail (Wire.error_to_string e));
  (match Wire.read_frame r with
   | Ok p -> check_int "large payload intact" 4096 (String.length p)
   | Error e -> Alcotest.fail (Wire.error_to_string e));
  (match Wire.read_frame r with
   | Error Wire.Closed -> ()
   | _ -> Alcotest.fail "EOF on a frame boundary must be Closed");
  Unix.close r

let write_all fd s =
  let b = Bytes.of_string s in
  let n = ref 0 in
  while !n < Bytes.length b do
    n := !n + Unix.write fd b !n (Bytes.length b - !n)
  done

let header_of len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

let test_wire_oversized () =
  let check_header len =
    let r, w = Unix.pipe () in
    write_all w (header_of len);
    Unix.close w;
    (match Wire.read_frame r with
     | Error (Wire.Oversized _) -> ()
     | Ok _ -> Alcotest.fail "oversized header accepted"
     | Error e ->
       Alcotest.fail ("oversized header misclassified: " ^ Wire.error_to_string e));
    Unix.close r
  in
  check_header (Wire.max_frame + 1);
  check_header (-1);
  check_header 0x7fffffff

let test_wire_truncated () =
  (* EOF mid-header *)
  let r, w = Unix.pipe () in
  write_all w "\x00\x00";
  Unix.close w;
  (match Wire.read_frame r with
   | Error (Wire.Truncated _) -> ()
   | _ -> Alcotest.fail "EOF mid-header must be Truncated");
  Unix.close r;
  (* EOF mid-payload *)
  let r, w = Unix.pipe () in
  write_all w (header_of 100);
  write_all w "only ten b";
  Unix.close w;
  (match Wire.read_frame r with
   | Error (Wire.Truncated _) -> ()
   | _ -> Alcotest.fail "EOF mid-payload must be Truncated");
  Unix.close r

let test_wire_encode_matches_write () =
  let r, w = Unix.pipe () in
  write_all w (Wire.encode "abc");
  Unix.close w;
  (match Wire.read_frame r with
   | Ok p -> check_string "encode produces a readable frame" "abc" p
   | Error e -> Alcotest.fail (Wire.error_to_string e));
  Unix.close r

(* ---------- connection behavior + fuzz ---------- *)

(* One stub-handled server shared by the connection tests: work requests
   answer instantly, control requests are inline, nothing tensorizes. *)
let with_stub_server f =
  let server =
    Server.create ~handle:(fun _ -> ok_json)
      { Server.domains = 2; queue_cap = 16; retries = 0 }
  in
  Fun.protect ~finally:(fun () -> Server.drain server) (fun () -> f server)

(* Drive one connection: feed [bytes] to the server, collect every
   response frame.  Returns the decoded response payloads in order. *)
let drive_connection server bytes =
  let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server_thread =
    Thread.create
      (fun () ->
        Server.serve_connection server sfd;
        Unix.close sfd)
      ()
  in
  (try
     write_all cfd bytes;
     Unix.shutdown cfd Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ -> (* server already hung up on our garbage *) ());
  let responses = ref [] in
  (* the server may hang up with our unread garbage still in flight,
     which surfaces here as ECONNRESET — end of stream, not a failure *)
  let rec collect () =
    match Wire.read_frame cfd with
    | Ok payload ->
      responses := payload :: !responses;
      collect ()
    | Error _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  collect ();
  Thread.join server_thread;
  Unix.close cfd;
  List.rev !responses

(* The one-shot client every CLI shares: a real Unix socket in a temp
   dir, served by the stub server for one accepted connection. *)
let test_wire_call () =
  let dir = temp_dir () in
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "unitd.sock" in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close listen_fd) @@ fun () ->
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 4;
  let accept_once serve =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen_fd in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> serve fd))
      ()
  in
  (* a ping round-trips to the pong *)
  with_stub_server (fun server ->
      let t = accept_once (Server.serve_connection server) in
      let r = Wire.call path (Json.to_string (Protocol.request_to_json Protocol.Ping)) in
      (match Result.map Json.parse r with
       | Ok (Ok j) ->
         (match Protocol.response_of_json j with
          | Ok (Protocol.Result res) ->
            check_bool "pong" true (Json.member "pong" res = Some (Json.Bool true))
          | _ -> Alcotest.failf "ping answered with %s" (Json.to_string j))
       | Ok (Error m) -> Alcotest.failf "response is not JSON: %s" m
       | Error m -> Alcotest.failf "ping failed: %s" m);
      Thread.join t);
  (* a missing socket is an error naming the path *)
  let missing = Filename.concat dir "absent.sock" in
  (match Wire.call missing "{\"req\":\"ping\"}" with
   | Error m -> check_bool "error names the path" true (string_contains m missing)
   | Ok _ -> Alcotest.fail "connected to a missing socket");
  (* a listener that hangs up at once, sent more than the socket buffer
     holds: EPIPE/ECONNRESET come back as Error, not an exception *)
  let t = accept_once (fun _ -> ()) in
  (match Wire.call path (String.make (2 * 1024 * 1024) 'x') with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "a hung-up listener answered");
  Thread.join t

let response_is_structured payload =
  match Json.parse payload with
  | Error _ -> false
  | Ok j ->
    (match Option.bind (Json.member "status" j) Json.to_str with
     | Some "ok" -> true
     | Some "error" ->
       (match Option.bind (Json.member "code" j) Json.to_str with
        | Some c -> Protocol.code_of_string c <> None
        | None -> false)
     | _ -> false)

let test_malformed_json_continues () =
  with_stub_server @@ fun server ->
  let responses =
    drive_connection server
      (Wire.encode "{not json at all" ^ Wire.encode "{\"req\":\"ping\"}")
  in
  check_int "both frames answered" 2 (List.length responses);
  (match List.map Json.parse responses with
   | [ Ok bad; Ok pong ] ->
     check_bool "malformed JSON answered with bad_request" true
       (Option.bind (Json.member "code" bad) Json.to_str
       = Some "bad_request");
     check_bool "connection kept serving after the error" true
       (Option.bind (Json.member "status" pong) Json.to_str = Some "ok")
   | _ -> Alcotest.fail "responses did not parse")

let test_oversized_header_hangs_up () =
  with_stub_server @@ fun server ->
  let responses =
    drive_connection server
      (header_of (Wire.max_frame + 7) ^ "trailing garbage the server must not read")
  in
  (* one final bad_request, then the unrecoverable stream is dropped *)
  check_int "exactly one response before hang-up" 1 (List.length responses);
  check_bool "response is structured" true
    (response_is_structured (List.hd responses))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* Hostile byte streams: whatever arrives, serve_connection terminates
   (no hang), never raises, and anything it sends back is a structured
   protocol response. *)
let prop_fuzz_raw_bytes =
  QCheck.Test.make ~count:60 ~name:"fuzz: arbitrary bytes never crash the wire loop"
    QCheck.(string_of_size Gen.(int_range 0 300))
    (fun bytes ->
      with_stub_server @@ fun server ->
      List.for_all response_is_structured (drive_connection server bytes))

(* Same, but with well-formed framing around arbitrary payloads: every
   frame gets exactly one structured answer. *)
let payload_gen =
  QCheck.Gen.(
    oneof
      [ string_size (int_range 0 120);
        map (fun s -> "{\"req\":" ^ s) (string_size (int_range 0 40));
        map (fun s -> "{\"req\":\"tune\",\"workload\":" ^ s ^ "}")
          (string_size (int_range 0 40));
        return "{\"req\":\"ping\"}";
        return "{\"req\":\"stats\"}";
        return "[1,2,3]"
      ])

let prop_fuzz_framed_payloads =
  QCheck.Test.make ~count:60
    ~name:"fuzz: framed junk payloads each get one structured response"
    QCheck.(make Gen.(list_size (int_range 1 5) payload_gen))
    (fun payloads ->
      with_stub_server @@ fun server ->
      let bytes = String.concat "" (List.map Wire.encode payloads) in
      let responses = drive_connection server bytes in
      List.length responses = List.length payloads
      && List.for_all response_is_structured responses)

(* A truncated final frame after valid traffic: the valid prefix is
   served, the stream ends with at most one structured error. *)
let prop_fuzz_truncated_tail =
  QCheck.Test.make ~count:40
    ~name:"fuzz: truncated tail still yields structured responses"
    QCheck.(pair (int_range 0 3) (int_range 1 30))
    (fun (valid_frames, cut) ->
      with_stub_server @@ fun server ->
      let whole = Wire.encode "{\"req\":\"ping\"}" in
      let tail = String.sub whole 0 (min cut (String.length whole - 1)) in
      let bytes =
        String.concat "" (List.init valid_frames (fun _ -> whole)) ^ tail
      in
      let responses = drive_connection server bytes in
      List.length responses >= valid_frames
      && List.length responses <= valid_frames + 1
      && List.for_all response_is_structured responses)

(* ---------- protocol round trip ---------- *)

let workload_gen =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Protocol.Table1 i) (int_range 1 16);
        map
          (fun (c, k, kernel) ->
            Protocol.Conv
              { Workload.c; h = 8; w = 8; k; kernel; stride = 1;
                padding = kernel / 2; groups = 1 })
          (triple (int_range 1 64) (int_range 1 64) (int_range 1 5));
        map2
          (fun k u -> Protocol.Dense { Workload.d_k = k; d_units = u })
          (int_range 1 512) (int_range 1 256)
      ])

let request_gen =
  QCheck.Gen.(
    let target = oneofl [ Pipeline.X86; Pipeline.Arm ] in
    let engine = oneofl [ Pipeline.Reference; Pipeline.Compiled; Pipeline.Emitted ] in
    oneof
      [ return Protocol.Ping;
        return Protocol.Stats;
        return Protocol.Shutdown;
        return Protocol.Metrics;
        map (fun id -> Protocol.Trace { id = Printf.sprintf "trace-%d" id })
          (int_range 0 9999);
        map3
          (fun last errors_only slower ->
            Protocol.Flight
              { last; errors_only;
                slower_than_us = Option.map float_of_int slower })
          (opt (int_range 0 4096)) bool (opt (int_range 0 1_000_000));
        map3
          (fun target engine workload -> Protocol.Tune { target; engine; workload })
          target engine workload_gen;
        map3
          (fun target engine workload -> Protocol.Run { target; engine; workload })
          target engine workload_gen;
        map2
          (fun target workload -> Protocol.Explain { target; workload })
          target workload_gen
      ])

let prop_request_round_trip =
  QCheck.Test.make ~count:200 ~name:"request survives JSON round trip"
    (QCheck.make request_gen)
    (fun req ->
      match Protocol.parse_request (Json.to_string (Protocol.request_to_json req)) with
      | Ok req' -> req = req'
      | Error _ -> false)

let prop_response_round_trip =
  QCheck.Test.make ~count:100 ~name:"response survives JSON round trip"
    QCheck.(
      make
        Gen.(
          oneof
            [ return (Protocol.Result ok_json);
              map2
                (fun code msg -> Protocol.Failure (code, msg))
                (oneofl
                   [ Protocol.Bad_request; Protocol.Overloaded; Protocol.Draining;
                     Protocol.Not_applicable; Protocol.Internal ])
                (string_size (int_range 0 40))
            ]))
    (fun resp ->
      match Protocol.response_of_json (Protocol.response_to_json resp) with
      | Ok resp' -> resp = resp'
      | Error _ -> false)

(* ---------- trace ids and unknown-field tolerance ---------- *)

let test_trace_id_of_json () =
  let parse s =
    match Json.parse s with
    | Ok j -> Protocol.trace_id_of_json j
    | Error e -> Alcotest.fail e
  in
  (match parse "{\"req\":\"ping\"}" with
   | Ok None -> ()
   | _ -> Alcotest.fail "absent trace_id must parse as Ok None");
  (match parse "{\"req\":\"ping\",\"trace_id\":\"abc-123.X:z\"}" with
   | Ok (Some "abc-123.X:z") -> ()
   | _ -> Alcotest.fail "valid trace_id rejected");
  let rejects label s =
    match parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ " accepted")
  in
  rejects "empty id" "{\"req\":\"ping\",\"trace_id\":\"\"}";
  rejects "overlong id"
    (Printf.sprintf "{\"req\":\"ping\",\"trace_id\":%S}" (String.make 129 'a'));
  rejects "id with a space" "{\"req\":\"ping\",\"trace_id\":\"has space\"}";
  rejects "non-string id" "{\"req\":\"ping\",\"trace_id\":7}"

(* Clients from the future may send fields this server doesn't know;
   requests must still parse by ignoring them. *)
let test_unknown_fields_ignored () =
  List.iter
    (fun (payload, expect) ->
      match Protocol.parse_request payload with
      | Ok req -> check_bool payload true (req = expect)
      | Error e -> Alcotest.failf "%s rejected: %s" payload e)
    [ ("{\"req\":\"ping\",\"future\":true}", Protocol.Ping);
      ("{\"req\":\"metrics\",\"format\":\"prometheus\"}", Protocol.Metrics);
      ( "{\"req\":\"trace\",\"id\":\"t1\",\"verbose\":1}",
        Protocol.Trace { id = "t1" } );
      ( "{\"req\":\"flight\",\"last\":3,\"color\":\"red\"}",
        Protocol.Flight
          { last = Some 3; errors_only = false; slower_than_us = None } )
    ]

(* ---------- flight recorder ring ---------- *)

module Flight = Unit_serve.Flight

let flight_entry ?(trace = "t") ?(outcome = "ok") run_us =
  { Flight.fl_trace = trace; fl_key = "k"; fl_outcome = outcome;
    fl_coalesced = false; fl_queue_us = 0.0; fl_run_us = run_us;
    fl_engine = ""; fl_store_hit = false }

(* The satellite property: with capacity for everything, a ring hammered
   by N concurrent submitters ends up holding exactly the set of
   recorded entries — nothing lost, nothing duplicated, and each
   thread's own entries still in its submission order. *)
let prop_flight_ring_no_loss_below_capacity =
  QCheck.Test.make ~count:25
    ~name:"flight ring under concurrent submitters equals the completed set"
    QCheck.(pair (int_range 1 6) (int_range 1 48))
    (fun (n_threads, per_thread) ->
      let ring = Flight.create ~cap:(n_threads * per_thread) () in
      let submitter id () =
        for i = 0 to per_thread - 1 do
          Flight.record ring
            (flight_entry ~trace:(Printf.sprintf "t-%d-%d" id i)
               (float_of_int i))
        done
      in
      let threads =
        List.init n_threads (fun id -> Thread.create (submitter id) ())
      in
      List.iter Thread.join threads;
      let entries = Flight.entries ring in
      let traces = List.map (fun e -> e.Flight.fl_trace) entries in
      let expected =
        List.concat_map
          (fun id ->
            List.init per_thread (fun i -> Printf.sprintf "t-%d-%d" id i))
          (List.init n_threads Fun.id)
      in
      Flight.recorded ring = n_threads * per_thread
      && List.length entries = n_threads * per_thread
      && List.sort compare traces = List.sort compare expected
      && (* per-thread submission order survives the interleaving *)
      List.for_all
        (fun id ->
          let prefix = Printf.sprintf "t-%d-" id in
          let mine =
            List.filter
              (fun t ->
                String.length t > String.length prefix
                && String.sub t 0 (String.length prefix) = prefix)
              traces
          in
          mine
          = List.init per_thread (fun i -> Printf.sprintf "t-%d-%d" id i))
        (List.init n_threads Fun.id))

(* Above capacity the ring must evict strictly oldest-first. *)
let prop_flight_ring_fifo_eviction =
  QCheck.Test.make ~count:50
    ~name:"flight ring evicts strictly FIFO above capacity"
    QCheck.(pair (int_range 1 32) (int_range 0 80))
    (fun (cap, extra) ->
      let ring = Flight.create ~cap () in
      let total = cap + extra in
      for i = 1 to total do
        Flight.record ring (flight_entry ~trace:(string_of_int i) 1.0)
      done;
      let traces =
        List.map (fun e -> e.Flight.fl_trace) (Flight.entries ring)
      in
      Flight.recorded ring = total
      && traces = List.init cap (fun i -> string_of_int (total - cap + i + 1)))

let test_flight_filters_and_percentiles () =
  let ring = Flight.create ~cap:256 () in
  for i = 1 to 100 do
    Flight.record ring
      (flight_entry
         ~outcome:(if i mod 10 = 0 then "internal" else "ok")
         (float_of_int i))
  done;
  let all = Flight.entries ring in
  check_int "full window" 100 (List.length all);
  (* nearest-rank percentiles over the window are exact *)
  check_bool "exact p50" true (Flight.exact_percentile all 50.0 = 50.0);
  check_bool "exact p99" true (Flight.exact_percentile all 99.0 = 99.0);
  check_bool "empty window is 0" true (Flight.exact_percentile [] 50.0 = 0.0);
  check_int "errors only" 10
    (List.length (Flight.entries ~errors_only:true ring));
  check_int "slower than is strict" 10
    (List.length (Flight.entries ~slower_than_us:90.0 ring));
  (* last-N applies after the other filters, newest retained *)
  (match Flight.entries ~errors_only:true ~last:2 ring with
   | [ a; b ] ->
     check_bool "filters compose" true
       (Flight.total_us a = 90.0 && Flight.total_us b = 100.0)
   | l -> Alcotest.failf "expected 2 filtered entries, got %d" (List.length l));
  (* entry JSON round-trips *)
  let e = flight_entry ~trace:"rt" ~outcome:"overloaded" 42.0 in
  (match Flight.entry_of_json (Flight.entry_to_json e) with
   | Ok e' -> check_bool "entry survives JSON round trip" true (e = e')
   | Error m -> Alcotest.fail m)

(* ---------- sharded store ---------- *)

let some_config grain unroll =
  { Cpu_tuner.parallel_grain = grain; unroll_budget = unroll }

let put_any ~record ~signature ~grain ~unroll =
  record ~signature ~workload:"conv_test" ~isa:"vnni.vpdpbusd"
    ~target:"cascadelake" ~config:(some_config grain unroll) ~cycles:123.0
    ~diag_digest:"d41d8"

(* The satellite property: a sharded store is observationally equivalent
   to the single-file store under the same operation sequence — lookups,
   size, stats and gc all agree, before and after a save/reopen cycle. *)
let prop_sharded_equals_single =
  let op_gen =
    QCheck.Gen.(
      triple (int_range 0 19) (oneofl [ 1; 8; 16; 24; 32 ]) (int_range 1 4))
  in
  QCheck.Test.make ~count:30
    ~name:"sharded store observationally equivalent to single-file store"
    QCheck.(make Gen.(list_size (int_range 1 25) op_gen))
    (fun ops ->
      let file = Filename.temp_file "unit_serve_single" ".jsonl" in
      Sys.remove file;
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () ->
          rm_rf dir;
          rm_rf file;
          rm_rf (file ^ ".artifacts"))
      @@ fun () ->
      let single, _ = Store.open_ file in
      let sharded, _ = Sharded.open_ ~shards:4 dir in
      List.iter
        (fun (i, grain, unroll) ->
          let signature = Printf.sprintf "sig-%d" i in
          put_any ~record:(Store.record single) ~signature ~grain ~unroll;
          put_any ~record:(Sharded.record sharded) ~signature ~grain ~unroll)
        ops;
      let agree single sharded =
        Store.size single = Sharded.size sharded
        && List.for_all
             (fun i ->
               let signature = Printf.sprintf "sig-%d" i in
               match
                 (Store.lookup single ~signature, Sharded.lookup sharded ~signature)
               with
               | None, None -> true
               | Some a, Some b ->
                 a.Store.r_config = b.Store.r_config
                 && a.Store.r_key = b.Store.r_key
               | _ -> false)
             (List.init 20 Fun.id)
      in
      let stats_agree () =
        let a = Store.stats single and b = Sharded.stats sharded in
        a.Store.st_records = b.Store.st_records
        && a.Store.st_hits = b.Store.st_hits
        && a.Store.st_misses = b.Store.st_misses
        && a.Store.st_appends = b.Store.st_appends
      in
      let live = agree single sharded && stats_agree () in
      Store.save single;
      Sharded.save sharded;
      let single', _ = Store.open_ file in
      let sharded', _ = Sharded.open_ dir in
      let reopened = agree single' sharded' in
      let gc_agree = Store.gc single' = Sharded.gc sharded' in
      live && reopened && gc_agree)

let test_sharded_routing () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t, diags = Sharded.open_ ~shards:4 dir in
  check_int "fresh sharded store loads clean" 0 (List.length diags);
  check_int "shard count pinned" 4 (Sharded.shard_count t);
  for i = 0 to 15 do
    put_any
      ~record:(Sharded.record t)
      ~signature:(Printf.sprintf "sig-%d" i) ~grain:8 ~unroll:2
  done;
  check_int "all records live" 16 (Sharded.size t);
  (* the routing function is the content address' hex prefix: each
     record must be in exactly the shard its key selects *)
  for i = 0 to 15 do
    let signature = Printf.sprintf "sig-%d" i in
    let key = Store.key_of_signature signature in
    let owner = Sharded.shard_of_key t key in
    check_bool "record lives on its routed shard" true
      (Store.lookup (Sharded.shard t owner) ~signature <> None);
    for s = 0 to 3 do
      if s <> owner then
        check_bool "record absent from other shards" true
          (Store.lookup (Sharded.shard t s) ~signature = None)
    done
  done;
  (* reopening with a different ?shards must keep the on-disk count *)
  Sharded.save t;
  let t', _ = Sharded.open_ ~shards:13 dir in
  check_int "persisted shard count wins on reopen" 4 (Sharded.shard_count t');
  check_int "records survive reopen" 16 (Sharded.size t')

let test_migration_from_legacy () =
  let legacy = Filename.temp_file "unit_serve_legacy" ".jsonl" in
  Sys.remove legacy;
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf legacy;
      rm_rf (legacy ^ ".artifacts"))
  @@ fun () ->
  let old, _ = Store.open_ legacy in
  for i = 0 to 9 do
    put_any
      ~record:(Store.record old)
      ~signature:(Printf.sprintf "sig-%d" i) ~grain:16 ~unroll:(1 + (i mod 4))
  done;
  Store.save old;
  let t, _ = Sharded.open_ ~shards:4 dir in
  let mg, diags = Sharded.migrate t ~legacy in
  check_int "clean legacy store migrates without diags" 0 (List.length diags);
  check_int "every record migrated" 10 mg.Sharded.mg_records;
  check_int "no artifacts to migrate" 0 mg.Sharded.mg_artifacts;
  (* migrated data is immediately visible and survives reopen *)
  let t', _ = Sharded.open_ dir in
  List.iter
    (fun t ->
      for i = 0 to 9 do
        let signature = Printf.sprintf "sig-%d" i in
        match Sharded.lookup t ~signature with
        | Some r ->
          check_int "config migrated intact" (1 + (i mod 4))
            r.Store.r_config.Cpu_tuner.unroll_budget
        | None -> Alcotest.fail (signature ^ " lost in migration")
      done)
    [ t; t' ];
  (* the legacy store is untouched — migration is revertible *)
  let old', diags' = Store.open_ legacy in
  check_int "legacy store still loads clean" 0 (List.length diags');
  check_int "legacy records untouched" 10 (Store.size old')

let expect_sys_error what path =
  match Sharded.open_ path with
  | _ -> Alcotest.fail (what ^ " opened as a store directory")
  | exception Sys_error msg -> msg

(* The one on-disk layout is the directory: a missing parent and a
   legacy single-file store both fail with the documented Sys_error,
   and the legacy file is left byte-for-byte intact for store-migrate. *)
let test_open_rejects_non_directories () =
  let parent = temp_dir () in
  ignore (expect_sys_error "missing parent" (Filename.concat parent "store"));
  let legacy = Filename.temp_file "unit_serve_legacy" ".jsonl" in
  Sys.remove legacy;
  Fun.protect
    ~finally:(fun () ->
      rm_rf legacy;
      rm_rf (legacy ^ ".artifacts"))
  @@ fun () ->
  let old, _ = Store.open_ legacy in
  for i = 0 to 2 do
    put_any
      ~record:(Store.record old)
      ~signature:(Printf.sprintf "sig-%d" i) ~grain:8 ~unroll:1
  done;
  Store.save old;
  let bytes () = In_channel.with_open_bin legacy In_channel.input_all in
  let before = bytes () in
  let msg = expect_sys_error "legacy single-file store" legacy in
  check_bool "the error names the conversion path" true
    (string_contains msg "unitc store-migrate");
  check_string "legacy store bytes unchanged" before (bytes ())

(* An empty meta file is the documented Sys_error, not End_of_file. *)
let test_empty_meta_is_sys_error () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sys.mkdir dir 0o755;
  close_out (open_out (Filename.concat dir "shards"));
  ignore (expect_sys_error "empty meta file" dir)

let test_corrupt_shard_degrades () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t, _ = Sharded.open_ ~shards:4 dir in
  let signatures = List.init 16 (Printf.sprintf "sig-%d") in
  List.iter
    (fun signature -> put_any ~record:(Sharded.record t) ~signature ~grain:8 ~unroll:2)
    signatures;
  Sharded.save t;
  (* vandalize exactly one shard file *)
  let victim = Sharded.shard_of_key t (Store.key_of_signature "sig-0") in
  let oc = open_out (Filename.concat dir (Printf.sprintf "shard-%02d.jsonl" victim)) in
  output_string oc "this is not JSONL\n{\"half\": a record\n";
  close_out oc;
  let t', diags = Sharded.open_ dir in
  check_bool "corruption is diagnosed, not fatal" true (diags <> []);
  (* every record routed to a healthy shard still serves *)
  let lost, kept =
    List.partition
      (fun signature ->
        Sharded.shard_of_key t' (Store.key_of_signature signature) = victim)
      signatures
  in
  List.iter
    (fun signature ->
      check_bool (signature ^ " survives on its healthy shard") true
        (Sharded.lookup t' ~signature <> None))
    kept;
  check_bool "the corrupt shard actually owned something" true (lost <> []);
  check_bool "healthy shards outnumber the victim" true
    (List.length kept > 0);
  (* the degraded store still accepts writes to healthy shards *)
  (match kept with
   | signature :: _ ->
     put_any ~record:(Sharded.record t') ~signature ~grain:32 ~unroll:1;
     (match Sharded.lookup t' ~signature with
      | Some r -> check_int "degraded store still records" 32
                    r.Store.r_config.Cpu_tuner.parallel_grain
      | None -> Alcotest.fail "record after degradation lost")
   | [] -> ())

(* ---------- server: admission, coalescing, retries, drain ---------- *)

let test_admission_control () =
  let handle, release, _calls = gated_handler () in
  let server = Server.create ~handle { Server.domains = 1; queue_cap = 1; retries = 0 } in
  (* A occupies the worker, B the one queue slot, C must bounce *)
  let ta, ra = submit_async server (tune_table1 1) in
  wait_for "worker to pick up A" (fun () ->
      stat server "queued" = 0 && stat server "inflight" = 1);
  let tb, rb = submit_async server (tune_table1 2) in
  wait_for "B to occupy the queue" (fun () -> stat server "queued" = 1);
  (match Server.submit server (tune_table1 3) with
   | Protocol.Failure (Protocol.Overloaded, _) -> ()
   | _ -> Alcotest.fail "full queue must answer overloaded");
  check_int "overload counted" 1 (stat server "overloaded");
  (* control traffic still answers while the queue is full *)
  (match Server.submit server Protocol.Stats with
   | Protocol.Result _ -> ()
   | _ -> Alcotest.fail "/stats must answer under overload");
  release ();
  Thread.join ta;
  Thread.join tb;
  check_bool "A eventually served" true
    (match !ra with Protocol.Result _ -> true | _ -> false);
  check_bool "B eventually served" true
    (match !rb with Protocol.Result _ -> true | _ -> false);
  Server.drain server

let test_coalescing () =
  let handle, release, calls = gated_handler () in
  let server = Server.create ~handle { Server.domains = 2; queue_cap = 8; retries = 0 } in
  let clients = List.init 4 (fun _ -> submit_async server (tune_table1 1)) in
  wait_for "three followers to coalesce" (fun () -> stat server "coalesced" = 3);
  release ();
  List.iter (fun (th, _) -> Thread.join th) clients;
  check_int "one execution for four clients" 1 (Atomic.get calls);
  let marked =
    List.length
      (List.filter
         (fun (_, r) ->
           match !r with
           | Protocol.Result j -> Json.member "coalesced" j = Some (Json.Bool true)
           | _ -> false)
         clients)
  in
  check_int "followers marked as coalesced" 3 marked;
  check_int "every client got a result" 4
    (List.length
       (List.filter
          (fun (_, r) -> match !r with Protocol.Result _ -> true | _ -> false)
          clients));
  Server.drain server

let test_retry_follows_backoff_schedule () =
  let attempts = Atomic.make 0 in
  let handle _req =
    if Atomic.fetch_and_add attempts 1 < 2 then failwith "transient worker death";
    ok_json
  in
  let sleeps = ref [] in
  let sleep s = sleeps := s :: !sleeps in
  let server =
    Server.create ~handle ~sleep { Server.domains = 1; queue_cap = 4; retries = 2 }
  in
  let req = tune_table1 1 in
  (match Server.submit server req with
   | Protocol.Result _ -> ()
   | Protocol.Failure (_, m) -> Alcotest.fail ("retried job should succeed: " ^ m));
  check_int "three attempts" 3 (Atomic.get attempts);
  check_int "retries counted" 2 (stat server "retries");
  let key = Option.get (Protocol.coalesce_key req) in
  let raised n = Printf.sprintf "%s attempt %d: Failure(\"transient worker death\")" key n in
  Alcotest.(check (list string))
    "each retried attempt's exception kept" [ raised 1; raised 2 ] (Server.retried server);
  let expected = [ Warmup.backoff_s ~key ~attempt:1; Warmup.backoff_s ~key ~attempt:2 ] in
  Alcotest.(check (list (float 1e-9)))
    "waits follow the deterministic Warmup.backoff_s schedule" expected
    (List.rev !sleeps);
  Server.drain server

let test_permanent_failure_is_contained () =
  let handle req =
    match req with
    | Protocol.Tune { workload = Protocol.Table1 1; _ } -> failwith "broken workload"
    | _ -> ok_json
  in
  let server = Server.create ~handle ~sleep:(fun _ -> ())
      { Server.domains = 1; queue_cap = 4; retries = 1 }
  in
  (match Server.submit server (tune_table1 1) with
   | Protocol.Failure (Protocol.Internal, m) ->
     check_bool "failure reports the attempt count" true
       (string_contains m "2 attempt")
   | _ -> Alcotest.fail "permanent failure must answer internal");
  check_int "failure counted" 1 (stat server "failed");
  (* one poisoned job never takes the worker pool down *)
  (match Server.submit server (tune_table1 2) with
   | Protocol.Result _ -> ()
   | _ -> Alcotest.fail "server must keep serving after a failed job");
  Server.drain server

let test_not_applicable_never_retried () =
  let attempts = Atomic.make 0 in
  let handle _req =
    Atomic.incr attempts;
    invalid_arg "no instruction tensorizes this workload"
  in
  let server = Server.create ~handle ~sleep:(fun _ -> ())
      { Server.domains = 1; queue_cap = 4; retries = 3 }
  in
  (match Server.submit server (tune_table1 1) with
   | Protocol.Failure (Protocol.Not_applicable, _) -> ()
   | _ -> Alcotest.fail "deterministic rejection must answer not_applicable");
  check_int "exactly one attempt" 1 (Atomic.get attempts);
  check_int "no retries burned" 0 (stat server "retries");
  Server.drain server

let test_fault_injection_kills_worker_mid_job () =
  (* the fault hook IS the worker dying mid-tune: it raises before the
     handler runs, the retry loop resurrects the job per backoff_s *)
  let deaths = Atomic.make 0 in
  let fault ~key:_ ~attempt =
    if attempt = 1 then begin
      Atomic.incr deaths;
      failwith "worker killed mid-tune"
    end
  in
  let sleeps = ref [] in
  let server =
    Server.create ~fault ~sleep:(fun s -> sleeps := s :: !sleeps)
      ~handle:(fun _ -> ok_json)
      { Server.domains = 1; queue_cap = 4; retries = 1 }
  in
  let req = tune_table1 4 in
  (match Server.submit server req with
   | Protocol.Result _ -> ()
   | Protocol.Failure (_, m) -> Alcotest.fail ("job should survive the fault: " ^ m));
  check_int "worker died once" 1 (Atomic.get deaths);
  let key = Option.get (Protocol.coalesce_key req) in
  Alcotest.(check (list (float 1e-9)))
    "resurrection followed the backoff schedule"
    [ Warmup.backoff_s ~key ~attempt:1 ]
    (List.rev !sleeps);
  Server.drain server

let test_drain_semantics () =
  let server =
    Server.create ~handle:(fun _ -> ok_json)
      { Server.domains = 2; queue_cap = 4; retries = 0 }
  in
  (match Server.submit server (tune_table1 1) with
   | Protocol.Result _ -> ()
   | _ -> Alcotest.fail "server must serve before shutdown");
  (match Server.submit server Protocol.Shutdown with
   | Protocol.Result _ -> ()
   | _ -> Alcotest.fail "shutdown must be acknowledged");
  check_bool "draining flag set" true (Server.draining server);
  (match Server.submit server (tune_table1 2) with
   | Protocol.Failure (Protocol.Draining, _) -> ()
   | _ -> Alcotest.fail "post-shutdown work must answer draining");
  Server.drain server;
  (* control traffic still answers after the pool is gone *)
  (match Server.submit server Protocol.Ping with
   | Protocol.Result _ -> ()
   | _ -> Alcotest.fail "ping must answer after drain")

(* ---------- request-scoped tracing and exposition ---------- *)

(* One traced request end to end: the client's id is echoed, the spans
   the pipeline ran under it carry the id, the server answers a trace
   request with the tagged chrome document, and ids the server generates
   itself are distinct. *)
let test_trace_propagation_end_to_end () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.reset ()) @@ fun () ->
  let server =
    Server.create { Server.domains = 2; queue_cap = 16; retries = 0 }
  in
  Fun.protect ~finally:(fun () -> Server.drain server) @@ fun () ->
  let resp, tid =
    Server.submit_traced server ~trace_id:"client-1" (tune_table1 3)
  in
  check_string "client trace id echoed" "client-1" tid;
  (match resp with
   | Protocol.Result _ -> ()
   | Protocol.Failure (_, m) -> Alcotest.fail m);
  (match Obs.trace_spans "client-1" with
   | Some (_ :: _ as sps) ->
     check_bool "every request span carries the trace id" true
       (List.for_all (fun sp -> sp.Obs.sp_trace = "client-1") sps)
   | _ -> Alcotest.fail "no spans attributed to the client's trace");
  (match Server.submit server (Protocol.Trace { id = "client-1" }) with
   | Protocol.Result j ->
     check_bool "chrome document names the trace" true
       (Json.member "trace_id" j = Some (Json.Str "client-1"))
   | Protocol.Failure (_, m) -> Alcotest.fail m);
  (match Server.submit server (Protocol.Trace { id = "never-begun" }) with
   | Protocol.Failure (Protocol.Bad_request, _) -> ()
   | _ -> Alcotest.fail "unknown trace id must answer bad_request");
  let _, a = Server.submit_traced server Protocol.Ping in
  let _, b = Server.submit_traced server Protocol.Ping in
  check_bool "generated ids are distinct" true (a <> b)

(* The metrics request answers a scrape that passes the strict
   exposition validator and exposes the always-on serve family; the
   stats document gained the live queue-depth gauge. *)
let test_metrics_request_validates () =
  with_stub_server @@ fun server ->
  (match Server.submit server Protocol.Ping with
   | Protocol.Result _ -> ()
   | _ -> Alcotest.fail "ping failed");
  (match Server.submit server Protocol.Metrics with
   | Protocol.Failure (_, m) -> Alcotest.fail m
   | Protocol.Result j ->
     (match Option.bind (Json.member "body" j) Json.to_str with
      | None -> Alcotest.fail "metrics result has no body"
      | Some body ->
        (match Unit_obs.Metrics.validate body with
         | Ok () -> ()
         | Error m -> Alcotest.failf "scrape fails validation: %s" m);
        check_bool "serve.requests exposed" true
          (string_contains body "unit_serve_requests");
        check_bool "latency buckets exposed" true
          (string_contains body "unit_serve_latency_us_bucket");
        check_bool "queue depth gauge exposed" true
          (string_contains body "unit_serve_queue_depth")));
  check_bool "stats carries queue_depth" true
    (List.mem_assoc "queue_depth" (Server.stats_fields server))

(* Failures land in the flight recorder with their code as the outcome,
   and the flight request's filters reach them. *)
let test_flight_records_failures () =
  let handle req =
    match req with
    | Protocol.Tune { workload = Protocol.Table1 1; _ } -> failwith "boom"
    | _ -> ok_json
  in
  let server =
    Server.create ~handle ~sleep:(fun _ -> ())
      { Server.domains = 1; queue_cap = 4; retries = 0 }
  in
  Fun.protect ~finally:(fun () -> Server.drain server) @@ fun () ->
  (match Server.submit server (tune_table1 1) with
   | Protocol.Failure (Protocol.Internal, _) -> ()
   | _ -> Alcotest.fail "expected an internal failure");
  (match Server.submit server (tune_table1 2) with
   | Protocol.Result _ -> ()
   | _ -> Alcotest.fail "server must keep serving");
  (match Flight.entries ~errors_only:true (Server.flight server) with
   | [ e ] ->
     check_string "outcome is the failure code" "internal" e.Flight.fl_outcome
   | l -> Alcotest.failf "expected 1 error entry, got %d" (List.length l));
  match
    Server.submit server
      (Protocol.Flight
         { last = Some 8; errors_only = true; slower_than_us = None })
  with
  | Protocol.Result j ->
    (match Option.bind (Json.member "entries" j) Json.to_list with
     | Some [ _ ] -> ()
     | Some l -> Alcotest.failf "flight request: %d entries" (List.length l)
     | None -> Alcotest.fail "flight result has no entries");
    check_bool "exact p50 reported" true (Json.member "exact_p50_us" j <> None);
    check_bool "exact p99 reported" true (Json.member "exact_p99_us" j <> None)
  | Protocol.Failure (_, m) -> Alcotest.fail m

(* ---------- the soak ---------- *)

let tune_span_count () =
  List.fold_left
    (fun acc (a : Obs.agg) ->
      if a.Obs.agg_name = "tensorize.tune" then acc + a.Obs.agg_count else acc)
    0
    (Obs.aggregate_spans (Obs.spans ()))

(* The failure text of the soak's "zero duplicate tuner sweeps" check:
   each workload ([tensorize] span detail) whose [tensorize.tune] span
   occurs more than once since [since], with the server's retry and
   failure counts and what its retried attempts raised, so a flaky
   failure shows its cause. *)
let duplicate_sweeps_report ~since server =
  let stats = Server.stats_fields server in
  let spans = Obs.spans () in
  let owner (sp : Obs.span_record) =
    List.find_map
      (fun (p : Obs.span_record) ->
        if p.Obs.sp_domain = sp.Obs.sp_domain && p.Obs.sp_id = sp.Obs.sp_parent then
          Some p.Obs.sp_detail
        else None)
      spans
  in
  let sweeps = Hashtbl.create 16 in
  List.iter
    (fun (sp : Obs.span_record) ->
      if sp.Obs.sp_name = "tensorize.tune" && sp.Obs.sp_begin >= since then
        let w = Option.value ~default:"?" (owner sp) in
        Hashtbl.replace sweeps w (1 + Option.value ~default:0 (Hashtbl.find_opt sweeps w)))
    spans;
  let repeated =
    Hashtbl.fold (fun w n acc -> if n > 1 then Printf.sprintf "%s x%d" w n :: acc else acc)
      sweeps []
  in
  Printf.sprintf
    "zero duplicate tuner sweeps (swept more than once: %s; retries %d, failed %d; retried: %s)"
    (match repeated with [] -> "none" | l -> String.concat ", " (List.sort compare l))
    (List.assoc "retries" stats) (List.assoc "failed" stats)
    (match Server.retried server with [] -> "none" | l -> String.concat "; " l)

let direct_digest workload =
  let c =
    Pipeline.compiled Pipeline.X86 (Protocol.to_workload workload)
  in
  let op = c.Pipeline.c_op in
  let inputs =
    List.map
      (fun t -> (t, Ndarray.random_for_tensor ~seed:1 t))
      (Unit_dsl.Op.inputs op)
  in
  let out = Ndarray.of_tensor_zeros op.Unit_dsl.Op.output in
  Pipeline.run_func ~engine:Pipeline.Compiled
    ~signature:(Pipeline.kernel_signature ~spec:Unit_machine.Spec.cascadelake op
                  c.Pipeline.c_intrin)
    c.Pipeline.c_tuned.Cpu_tuner.t_func
    ~bindings:((op.Unit_dsl.Op.output, out) :: inputs);
  Protocol.digest_ndarray out

(* A run request's digest names its answer, not the process that
   computed it: inputs are keyed on tensor names, never on the
   process-global tensor ids, so the same request answers alike after
   the kernel cache is cleared (the kernel is tensorized again under
   fresh ids) and in a second process. *)
let digest_request =
  Protocol.Run
    { target = Pipeline.X86; engine = Pipeline.Compiled;
      workload = Protocol.Conv (small_conv ()) }

let run_digest () =
  match Option.bind (Json.member "digest" (Handler.handle digest_request)) Json.to_str with
  | Some d -> d
  | None -> Alcotest.fail "run response carries no digest"

let digest_child_env = "UNIT_SERVE_TEST_RUN_DIGEST"

(* The second process is this test binary, which prints the digest and
   exits when [digest_child_env] is set (see the bottom of the file). *)
let child_digest () =
  let out, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name [| Sys.executable_name |]
      (Array.append (Unix.environment ()) [| digest_child_env ^ "=1" |])
      Unix.stdin child_out Unix.stderr
  in
  Unix.close child_out;
  let ic = Unix.in_channel_of_descr out in
  let digest = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> Alcotest.fail "digest child process failed");
  String.trim digest

(* Two runs of one conv that differ only in padding share a display
   name but not a kernel: after the padding-1 run, the padding-0 run
   still answers with its own 6x6 output. *)
let padding_conv padding = Protocol.Conv { (small_conv ()) with Workload.padding }

let padding_run padding =
  Protocol.Run
    { target = Pipeline.X86; engine = Pipeline.Compiled; workload = padding_conv padding }

let elements_and_digest json =
  ( Option.bind (Json.member "elements" json) Json.to_num,
    Option.bind (Json.member "digest" json) Json.to_str )

let test_padding_variants_keep_their_answers () =
  Pipeline.clear_cache ();
  Fun.protect ~finally:Pipeline.clear_cache @@ fun () ->
  let run padding = elements_and_digest (Handler.handle (padding_run padding)) in
  let p1_elements, _ = run 1 in
  check_bool "padding 1: 16x8x8 outputs" true (p1_elements = Some 1024.0);
  let p0_elements, p0_digest = run 0 in
  check_bool "padding 0 after padding 1: 16x6x6 outputs" true (p0_elements = Some 576.0);
  check_string "padding 0: its own kernel's digest" (direct_digest (padding_conv 0))
    (Option.get p0_digest);
  check_string "padding 0: pinned digest" "cf172d88b549c8f9ba762c6c6af7170c"
    (Option.get p0_digest)

(* On a live server, concurrent runs of the two padding variants are two
   jobs, each answered with its own output. *)
let test_padding_variants_not_coalesced () =
  Pipeline.clear_cache ();
  Fun.protect ~finally:Pipeline.clear_cache @@ fun () ->
  let gate, release, calls = gated_handler () in
  let handle req =
    ignore (gate req : Json.t);
    Handler.handle req
  in
  let server = Server.create ~handle { Server.domains = 2; queue_cap = 8; retries = 0 } in
  let clients = List.map (fun p -> submit_async server (padding_run p)) [ 0; 1 ] in
  wait_for "both runs to reach a handler or coalesce" (fun () ->
      Atomic.get calls + stat server "coalesced" = 2);
  release ();
  List.iter (fun (th, _) -> Thread.join th) clients;
  check_int "nothing coalesced" 0 (stat server "coalesced");
  check_int "two executions" 2 (Atomic.get calls);
  List.iter2
    (fun (_, r) want ->
      match !r with
      | Protocol.Result j ->
        check_bool "each run answers with its own output" true
          (fst (elements_and_digest j) = Some want)
      | Protocol.Failure (_, m) -> Alcotest.fail m)
    clients [ 576.0; 1024.0 ];
  Server.drain server

let test_run_digest_canonical () =
  let first = run_digest () in
  Pipeline.clear_cache ();
  let again = run_digest () in
  check_string "same digest after Pipeline.clear_cache" first again;
  check_string "same digest in another process" first (child_digest ())

(* The headline soak: >= 2000 mixed warm/cold requests from concurrent
   client threads into a 4-domain server over a fresh sharded store.
   Asserts: no failed responses, zero duplicate tuner sweeps
   (trace-counted), run digests bit-identical to direct pipeline
   execution, and warm traffic actually coalesced or memoized. *)
let test_soak () =
  let requests_total = 2048 and clients = 8 and domains = 4 in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sharded.with_installed dir @@ fun _store _diags ->
  Pipeline.clear_cache ();
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  let tune_pool =
    Array.of_list
      (List.concat_map
         (fun target ->
           List.init 16 (fun i -> (target, Protocol.Table1 (i + 1)))
           @ [ (target, Protocol.Dense { Workload.d_k = 256; d_units = 128 });
               (target, Protocol.Dense { Workload.d_k = 512; d_units = 64 })
             ])
         [ Pipeline.X86; Pipeline.Arm ])
  in
  let run_pool =
    [| Protocol.Conv (small_conv ());
       Protocol.Conv (small_conv ~c:16 ~k:32 ());
       Protocol.Conv (small_conv ~c:32 ~k:16 ());
       Protocol.Conv (small_conv ~c:8 ~k:48 ())
    |]
  in
  let request i =
    if i mod 4 = 3 then
      Protocol.Run
        { target = Pipeline.X86; engine = Pipeline.Compiled;
          workload = run_pool.(i / 4 mod Array.length run_pool) }
    else
      let target, workload = tune_pool.(i mod Array.length tune_pool) in
      Protocol.Tune { target; engine = Pipeline.Compiled; workload }
  in
  let distinct_workloads =
    let keys = Hashtbl.create 64 in
    for i = 0 to requests_total - 1 do
      match request i with
      | Protocol.Tune { target; workload; _ } | Protocol.Run { target; workload; _ } ->
        Hashtbl.replace keys (Pipeline.kernel_key target (Protocol.to_workload workload)) ()
      | _ -> ()
    done;
    Hashtbl.length keys
  in
  let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ())) in
  let tunes_before = tune_span_count () in
  let soak_start = Obs.now () in
  let hits_before = counter "pipeline.cache.hit" in
  let waits_before = counter "pipeline.cache.wait" in
  let server = Server.create { Server.domains; queue_cap = 256; retries = 1 } in
  let failures = Atomic.make 0 in
  let digests : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let digest_lock = Mutex.create () in
  let per_client = requests_total / clients in
  let client id () =
    for i = 0 to per_client - 1 do
      let req = request ((id * per_client) + i) in
      match Server.submit server req with
      | Protocol.Failure _ -> Atomic.incr failures
      | Protocol.Result j ->
        (match req with
         | Protocol.Run _ ->
           let get name = Option.bind (Json.member name j) Json.to_str in
           (match (get "workload", get "digest") with
            | Some wl, Some d ->
              Mutex.lock digest_lock;
              (match Hashtbl.find_opt digests wl with
               | Some d' when d' <> d -> Atomic.incr failures
               | _ -> Hashtbl.replace digests wl d);
              Mutex.unlock digest_lock
            | _ -> Atomic.incr failures)
         | _ -> ())
    done
  in
  let threads = List.init clients (fun id -> Thread.create (client id) ()) in
  List.iter Thread.join threads;
  let tunes_during = tune_span_count () - tunes_before in
  let memo_shared =
    counter "pipeline.cache.hit" - hits_before
    + (counter "pipeline.cache.wait" - waits_before)
  in
  let stats = Server.stats_fields server in
  Server.drain server;
  check_int "no failed or divergent responses" 0 (Atomic.get failures);
  check_int "requests all accounted" requests_total (List.assoc "requests" stats);
  check_int "nothing rejected by admission control" 0 (List.assoc "overloaded" stats);
  check_int
    (if tunes_during = distinct_workloads then "zero duplicate tuner sweeps"
     else duplicate_sweeps_report ~since:soak_start server)
    distinct_workloads tunes_during;
  (* every Run workload replayed directly through the pipeline must match
     the daemon's digest bit for bit *)
  Array.iter
    (fun workload ->
      let name = Protocol.workload_name workload in
      match Hashtbl.find_opt digests name with
      | None -> Alcotest.fail (name ^ " was never run")
      | Some daemon_digest ->
        check_string (name ^ " bit-identical to direct pipeline") daemon_digest
          (direct_digest workload))
    run_pool;
  (* warm traffic was actually shared: every work request beyond the
     first of each workload was coalesced by the server, or reached the
     pipeline memo and hit it or waited on its in-flight compile *)
  check_bool "warm requests were coalesced or memoized" true
    (List.assoc "coalesced" stats + memo_shared
     >= requests_total - distinct_workloads)

let () =
  if Sys.getenv_opt digest_child_env <> None then begin
    (* shift the tensor id counter away from the parent's *)
    for _ = 1 to 7 do
      ignore (Unit_dsl.Tensor.create ~name:"pad" ~shape:[ 1 ] Unit_dtype.Dtype.I32)
    done;
    print_string (run_digest ());
    exit 0
  end

let () =
  Alcotest.run "serve"
    [ ( "wire",
        [ Alcotest.test_case "frame round trip" `Quick test_wire_round_trip;
          Alcotest.test_case "oversized header rejected unallocated" `Quick
            test_wire_oversized;
          Alcotest.test_case "truncation classified" `Quick test_wire_truncated;
          Alcotest.test_case "encode matches the stream format" `Quick
            test_wire_encode_matches_write;
          Alcotest.test_case "one-shot client" `Quick test_wire_call
        ] );
      ( "connection",
        [ Alcotest.test_case "malformed JSON answered, connection continues"
            `Quick test_malformed_json_continues;
          Alcotest.test_case "oversized header answered, then hang up" `Quick
            test_oversized_header_hangs_up
        ]
        @ qcheck
            [ prop_fuzz_raw_bytes; prop_fuzz_framed_payloads;
              prop_fuzz_truncated_tail
            ] );
      ( "protocol",
        [ Alcotest.test_case "trace_id validation" `Quick test_trace_id_of_json;
          Alcotest.test_case "unknown fields ignored" `Quick
            test_unknown_fields_ignored
        ]
        @ qcheck [ prop_request_round_trip; prop_response_round_trip ] );
      ( "flight recorder",
        [ Alcotest.test_case "filters and exact percentiles" `Quick
            test_flight_filters_and_percentiles
        ]
        @ qcheck
            [ prop_flight_ring_no_loss_below_capacity;
              prop_flight_ring_fifo_eviction
            ] );
      ( "tracing",
        [ Alcotest.test_case "trace propagation end to end" `Quick
            test_trace_propagation_end_to_end;
          Alcotest.test_case "metrics scrape validates" `Quick
            test_metrics_request_validates;
          Alcotest.test_case "failures recorded in flight window" `Quick
            test_flight_records_failures
        ] );
      ( "sharded store",
        [ Alcotest.test_case "records route by content address" `Quick
            test_sharded_routing;
          Alcotest.test_case "migration from a legacy store" `Quick
            test_migration_from_legacy;
          Alcotest.test_case "non-directories fail with Sys_error" `Quick
            test_open_rejects_non_directories;
          Alcotest.test_case "empty meta file fails with Sys_error" `Quick
            test_empty_meta_is_sys_error;
          Alcotest.test_case "one corrupt shard degrades, others serve" `Quick
            test_corrupt_shard_degrades
        ]
        @ qcheck [ prop_sharded_equals_single ] );
      ( "server",
        [ Alcotest.test_case "admission control bounds the queue" `Quick
            test_admission_control;
          Alcotest.test_case "identical requests coalesce" `Quick test_coalescing;
          Alcotest.test_case "retries follow the backoff schedule" `Quick
            test_retry_follows_backoff_schedule;
          Alcotest.test_case "permanent failure contained" `Quick
            test_permanent_failure_is_contained;
          Alcotest.test_case "deterministic rejection never retried" `Quick
            test_not_applicable_never_retried;
          Alcotest.test_case "worker killed mid-job is resurrected" `Quick
            test_fault_injection_kills_worker_mid_job;
          Alcotest.test_case "graceful drain" `Quick test_drain_semantics;
          Alcotest.test_case "padding variants keep answers" `Quick
            test_padding_variants_keep_their_answers;
          Alcotest.test_case "padding variants not coalesced" `Quick
            test_padding_variants_not_coalesced;
          Alcotest.test_case "run digests are canonical" `Quick
            test_run_digest_canonical
        ] );
      ("soak", [ Alcotest.test_case "2048-request concurrent soak" `Slow test_soak ])
    ]
