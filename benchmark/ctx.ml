(* One benchmark run: its settings, the set-up and operation samples it
   records, the failures it counts, and the per-layer values the traced
   run fills in.  Workloads only call the functions below; [Main] turns
   what they recorded into metrics. *)

module Obs = Unit_obs.Obs

type scale =
  | Full
  | Smoke  (** tiny inputs, for the test rule that keeps the benchmark alive *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : scale;
  domains : int;
  work_dir : string;  (** scratch inside the checkout, removed at exit *)
  lock : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable setups : float list;
  mutable traced_round : bool;
  mutable sampling : bool;  (** false during warm-up and reference runs *)
  mutable classes : string list;  (** first-seen order, newest first *)
  samples : (string, (float * bool) list) Hashtbl.t;
      (** class -> (seconds, recorded in a traced round) *)
  mutable throughput : float option;  (** overrides the per-class rate *)
  layers : (string, float) Hashtbl.t;
  mutable timed_from : float;  (** span clock when the timed phase began *)
  mutable counters_at_timed : (string * int) list;
  mutable resetup : unit -> unit;  (** more set-up repetitions, see [setup] *)
  mutable probes : float list;  (** probe durations in seconds, see [probe] *)
  mutable last_probe : float;
}

let create ~workload ~seed ~seconds ~trace ~scale ~domains ~work_dir =
  { workload; seed; seconds; trace; scale; domains; work_dir;
    lock = Mutex.create (); attempted = 0; failed = 0; setups = [];
    traced_round = false; sampling = true; classes = []; samples = Hashtbl.create 16;
    throughput = None; layers = Hashtbl.create 64; timed_from = infinity;
    counters_at_timed = []; resetup = ignore;
    probes = []; last_probe = neg_infinity }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let now = Obs.now

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      locked t (fun () -> t.failed <- t.failed + 1);
      prerr_endline ("benchmark " ^ t.workload ^ ": " ^ msg))
    fmt

let check t ok fmt =
  Printf.ksprintf (fun msg -> if not ok then fail t "%s" msg) fmt

let record t cls seconds =
  if t.sampling then
    locked t (fun () ->
        let prev =
          match Hashtbl.find_opt t.samples cls with
          | Some l -> l
          | None ->
            t.classes <- cls :: t.classes;
            []
        in
        Hashtbl.replace t.samples cls ((seconds, t.traced_round) :: prev))

(* A shared host's speed drifts by tens of percent over minutes and can
   halve for seconds.  [probe] times a fixed piece of plain OCaml
   ([Host.probe]) before set-up, before every round and, on the main
   thread, before any operation that starts a quarter second after the
   last probe; [Main] scales the run's times by the probe's median, so
   runs made in different host states compare. *)
let probe t =
  let t0 = now () in
  Host.probe ();
  let t1 = now () in
  t.probes <- (t1 -. t0) :: t.probes;
  t.last_probe <- t1

(* Time one operation of class [cls], returning its result and seconds;
   [per] divides the sample by the units of work the operation did.  An
   exception counts as a failed operation and yields [None]. *)
let op ?(per = fun _ -> 1) t cls f =
  if Thread.id (Thread.self ()) = 0 && now () -. t.last_probe > 0.25 then probe t;
  locked t (fun () -> t.attempted <- t.attempted + 1);
  let t0 = now () in
  match f () with
  | v ->
    let dt = now () -. t0 in
    record t cls (dt /. float_of_int (Stdlib.max 1 (per v)));
    Some (v, dt)
  | exception e ->
    fail t "%s raised %s" cls (Printexc.to_string e);
    None

(* Wrap a public call in a [bench.<layer>] span (a no-op untraced). *)
let span ?detail layer f = Obs.with_span ?detail ("bench." ^ layer) f

(* Set up [upfront] times, tearing down all but the last repetition,
   whose result the timed phase uses; then [timed] repeats the set-up
   [per_round] more times after every untraced round, tearing each down
   at once.  setup_s is the median of every repetition: spread over the
   run, the repetitions see the host states the operations see.  A
   set-up that clears state the running workload depends on cannot be
   repeated mid-run and sets [per_round] to 0.  The repetition index lets
   a set-up pick fresh names, so every repetition does the same work.
   Traced and smoke runs set up once. *)
let setup t ~upfront ~per_round ?(teardown = ignore) f =
  let once = t.trace || t.scale = Smoke in
  let count = ref 0 in
  let rep () =
    let i = !count in
    incr count;
    let t0 = now () in
    let v = span "setup" (fun () -> f i) in
    t.setups <- (now () -. t0) :: t.setups;
    v
  in
  probe t;
  if not once then
    t.resetup <-
      (fun () ->
        for _ = 1 to per_round do
          teardown (rep ())
        done);
  let rec first n =
    let v = rep () in
    if n > 1 && not once then begin
      teardown v;
      first (n - 1)
    end
    else v
  in
  first upfront

(* Work that is neither set-up nor measured, such as reference runs:
   never traced, never sampled, but still checked. *)
let untraced t f =
  let was = Obs.enabled () in
  Obs.set_enabled false;
  t.sampling <- false;
  Fun.protect
    ~finally:(fun () ->
      t.sampling <- true;
      Obs.set_enabled was)
    f

(* Warm-up repetitions, before any timed one; a smoke run skips them. *)
let warmup t f = if t.scale = Full then untraced t f

(* Run rounds until [seconds] have elapsed.  A traced run alternates
   untraced and traced rounds, so both halves see the same drift and the
   untraced half still gives the layer numbers their untraced base. *)
let timed t round =
  t.timed_from <- now ();
  t.counters_at_timed <- Obs.counters ();
  let t0 = now () in
  let rec go i =
    let traced = t.trace && i mod 2 = 1 in
    t.traced_round <- traced;
    probe t;
    Obs.set_enabled traced;
    round i;
    if not traced then t.resetup ();
    if now () -. t0 < t.seconds || (t.trace && i < 1) then go (i + 1)
  in
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> go 0)

let samples ?(traced = false) t cls =
  match Hashtbl.find_opt t.samples cls with
  | None -> []
  | Some l -> List.filter_map (fun (s, tr) -> if tr = traced then Some s else None) l

let classes t = List.rev t.classes
let set_layer t name v = Hashtbl.replace t.layers name v
let set_throughput t v = t.throughput <- Some v

(* Spans recorded during set-up and during the timed phase. *)
let setup_spans t =
  List.filter (fun (s : Obs.span_record) -> s.Obs.sp_begin < t.timed_from) (Obs.spans ())

let timed_spans t =
  List.filter (fun (s : Obs.span_record) -> s.Obs.sp_begin >= t.timed_from) (Obs.spans ())

(* How much a counter grew over the timed phase's traced rounds. *)
let timed_counter t name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  get (Obs.counters ()) - get t.counters_at_timed
