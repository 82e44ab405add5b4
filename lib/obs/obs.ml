(* Hierarchical trace spans + counters + histograms.

   Concurrency design: spans are appended to a per-domain growable
   buffer reached through [Domain.DLS], so recording never contends —
   the only lock is taken when a domain registers its buffer (once per
   domain) and when a snapshot walks the registry.  Counters are plain
   [Atomic.t] ints.  Histograms take a tiny per-histogram mutex on
   [observe]; they sit on warm paths (per tuner sweep, per executor
   level), not hot ones.

   The [enabled] flag is the single gate: when off, [start] returns
   [null_span] before touching DLS, and [incr]/[add]/[observe] return
   immediately.  [stop] deliberately does NOT check the flag so a span
   opened just before tracing is switched off is still closed — the
   well-formedness invariant (every recorded span closed, children
   nested in parents) must hold whenever recording stops. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Span timing rides the POSIX monotonic clock (C stub — OCaml 5.1's
   Unix has no clock_gettime), so an NTP step mid-span cannot produce a
   negative duration.  When the stub reports failure we fall back to
   gettimeofday, the pre-PR-10 behavior. *)
external monotonic_s : unit -> float = "unit_obs_monotonic_s"

let monotonic_available = monotonic_s () >= 0.0
let now () = if monotonic_available then monotonic_s () else Unix.gettimeofday ()

(* ---------- trace context ---------- *)

(* The request-scoped trace id, carried in Domain.DLS: the daemon's
   worker domain sets it before calling the handler, and every span
   opened / counter bumped / diag tagged on that domain until it is
   cleared belongs to that request.  Orthogonal to [enabled]: span
   *recording* stays gated, but per-trace counter attribution is always
   on while a context is set, so the flight recorder stays truthful with
   tracing off. *)
let trace_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_trace_id () = Domain.DLS.get trace_key

let with_trace_id id f =
  let prev = Domain.DLS.get trace_key in
  Domain.DLS.set trace_key id;
  Fun.protect ~finally:(fun () -> Domain.DLS.set trace_key prev) f

(* ---------- spans ---------- *)

type span = int

let null_span = -1

type rec_span = {
  rs_name : string;
  mutable rs_detail : string;
  rs_parent : int;
  rs_trace : string; (* "" = not request-scoped *)
  rs_begin : float;
  mutable rs_end : float; (* -1.0 while open *)
}

let dummy_rec =
  { rs_name = ""; rs_detail = ""; rs_parent = -1; rs_trace = ""; rs_begin = 0.; rs_end = 0. }

type buffer = {
  b_domain : int;
  mutable b_spans : rec_span array;
  mutable b_len : int;
  mutable b_stack : int list; (* indices of open spans, innermost first *)
}

let registry : buffer list ref = ref []
let registry_mu = Mutex.create ()

let make_buffer () =
  let b =
    {
      b_domain = (Domain.self () :> int);
      b_spans = Array.make 64 dummy_rec;
      b_len = 0;
      b_stack = [];
    }
  in
  Mutex.lock registry_mu;
  registry := b :: !registry;
  Mutex.unlock registry_mu;
  b

let buffer_key = Domain.DLS.new_key make_buffer

let push b r =
  if b.b_len = Array.length b.b_spans then begin
    let bigger = Array.make (2 * b.b_len) dummy_rec in
    Array.blit b.b_spans 0 bigger 0 b.b_len;
    b.b_spans <- bigger
  end;
  b.b_spans.(b.b_len) <- r;
  b.b_len <- b.b_len + 1;
  b.b_len - 1

(* ---------- per-trace store ---------- *)

(* Finished state of each request-scoped trace: closed spans (copied out
   of the domain buffers as they close), counter deltas, and tagged
   diagnostics.  Bounded FIFO by trace id — a long-lived daemon retains
   the last [trace_cap] traces. *)

type span_record = {
  sp_name : string;
  sp_detail : string;
  sp_domain : int;
  sp_id : int;
  sp_parent : int;
  sp_trace : string;
  sp_begin : float;
  sp_end : float;
}

type trace_data = {
  td_id : string;
  mutable td_spans : span_record list; (* newest first *)
  td_counters : (string, int) Hashtbl.t;
  mutable td_diags : string list; (* newest first *)
}

let traces_tbl : (string, trace_data) Hashtbl.t = Hashtbl.create 64
let traces_order : string Queue.t = Queue.create ()
let traces_mu = Mutex.create ()
let trace_cap = ref 256

let set_trace_cap n =
  if n < 1 then invalid_arg "Obs.set_trace_cap: cap must be >= 1";
  Mutex.lock traces_mu;
  trace_cap := n;
  while Queue.length traces_order > n do
    Hashtbl.remove traces_tbl (Queue.pop traces_order)
  done;
  Mutex.unlock traces_mu

let trace_begin id =
  Mutex.lock traces_mu;
  if not (Hashtbl.mem traces_tbl id) then begin
    Hashtbl.add traces_tbl id
      { td_id = id; td_spans = []; td_counters = Hashtbl.create 8; td_diags = [] };
    Queue.push id traces_order;
    while Queue.length traces_order > !trace_cap do
      Hashtbl.remove traces_tbl (Queue.pop traces_order)
    done
  end;
  Mutex.unlock traces_mu

let trace_known id =
  Mutex.lock traces_mu;
  let known = Hashtbl.mem traces_tbl id in
  Mutex.unlock traces_mu;
  known

(* Attribution helpers: silently drop activity for ids never begun (or
   already evicted) so a stray context cannot grow the table. *)
let trace_attr_span tr sp =
  Mutex.lock traces_mu;
  (match Hashtbl.find_opt traces_tbl tr with
   | Some td -> td.td_spans <- sp :: td.td_spans
   | None -> ());
  Mutex.unlock traces_mu

let trace_attr_counter tr name n =
  Mutex.lock traces_mu;
  (match Hashtbl.find_opt traces_tbl tr with
   | Some td ->
     Hashtbl.replace td.td_counters name
       (n + Option.value ~default:0 (Hashtbl.find_opt td.td_counters name))
   | None -> ());
  Mutex.unlock traces_mu

let trace_diag msg =
  match Domain.DLS.get trace_key with
  | None -> ()
  | Some tr ->
    Mutex.lock traces_mu;
    (match Hashtbl.find_opt traces_tbl tr with
     | Some td -> td.td_diags <- msg :: td.td_diags
     | None -> ());
    Mutex.unlock traces_mu

let trace_spans id =
  Mutex.lock traces_mu;
  let sps = Option.map (fun td -> td.td_spans) (Hashtbl.find_opt traces_tbl id) in
  Mutex.unlock traces_mu;
  Option.map
    (List.sort (fun a b -> compare (a.sp_domain, a.sp_id) (b.sp_domain, b.sp_id)))
    sps

let trace_counters id =
  Mutex.lock traces_mu;
  let cs =
    Option.map
      (fun td -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) td.td_counters [])
      (Hashtbl.find_opt traces_tbl id)
  in
  Mutex.unlock traces_mu;
  Option.map (List.sort compare) cs

let trace_counter_value id name =
  Mutex.lock traces_mu;
  let v =
    match Hashtbl.find_opt traces_tbl id with
    | Some td -> Option.value ~default:0 (Hashtbl.find_opt td.td_counters name)
    | None -> 0
  in
  Mutex.unlock traces_mu;
  v

let trace_diags id =
  Mutex.lock traces_mu;
  let ds = Option.map (fun td -> List.rev td.td_diags) (Hashtbl.find_opt traces_tbl id) in
  Mutex.unlock traces_mu;
  ds

let trace_ids () =
  Mutex.lock traces_mu;
  let ids = List.of_seq (Queue.to_seq traces_order) in
  Mutex.unlock traces_mu;
  ids

(* ---------- span recording ---------- *)

let start ?(detail = "") name =
  if not (Atomic.get enabled_flag) then null_span
  else begin
    let b = Domain.DLS.get buffer_key in
    let parent = match b.b_stack with [] -> -1 | i :: _ -> i in
    let trace = Option.value ~default:"" (Domain.DLS.get trace_key) in
    let i =
      push b
        { rs_name = name; rs_detail = detail; rs_parent = parent;
          rs_trace = trace; rs_begin = now (); rs_end = -1.0 }
    in
    b.b_stack <- i :: b.b_stack;
    i
  end

let stop tok =
  if tok >= 0 then begin
    let b = Domain.DLS.get buffer_key in
    (* A [reset] between start and stop invalidates the token. *)
    if tok < b.b_len && List.mem tok b.b_stack then begin
      let t = now () in
      (* Pop to [tok], force-closing any child left open so the
         recorded tree stays well-formed even on sloppy call sites. *)
      let rec pop = function
        | [] -> []
        | i :: rest ->
          let r = b.b_spans.(i) in
          if r.rs_end < r.rs_begin then begin
            r.rs_end <- t;
            (* request-scoped spans are copied to the per-trace store
               the moment they close, so a `trace` fetch never has to
               walk every domain's whole history *)
            if r.rs_trace <> "" then
              trace_attr_span r.rs_trace
                { sp_name = r.rs_name; sp_detail = r.rs_detail;
                  sp_domain = b.b_domain; sp_id = i; sp_parent = r.rs_parent;
                  sp_trace = r.rs_trace; sp_begin = r.rs_begin; sp_end = r.rs_end }
          end;
          if i = tok then rest else pop rest
      in
      b.b_stack <- pop b.b_stack
    end
  end

let with_span ?detail name f =
  let tok = start ?detail name in
  Fun.protect ~finally:(fun () -> stop tok) f

(* Append detail to an open span discovered along the way (e.g. the
   executor annotating an operator span with the computed output shape).
   Same-domain only, like [stop]: the token indexes this domain's
   buffer. *)
let annotate tok detail =
  if tok >= 0 && detail <> "" then begin
    let b = Domain.DLS.get buffer_key in
    if tok < b.b_len then begin
      let r = b.b_spans.(tok) in
      r.rs_detail <- (if r.rs_detail = "" then detail else r.rs_detail ^ " " ^ detail)
    end
  end

(* ---------- counters ---------- *)

type counter = {
  c_name : string;
  c_val : int Atomic.t;
  c_always : bool;
}

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let counters_mu = Mutex.create ()

let counter ?(always = false) name =
  Mutex.lock counters_mu;
  let c =
    match Hashtbl.find_opt counters_tbl name with
    | Some c -> c (* the flag is fixed at first intern *)
    | None ->
      let c = { c_name = name; c_val = Atomic.make 0; c_always = always } in
      Hashtbl.add counters_tbl name c;
      c
  in
  Mutex.unlock counters_mu;
  c

(* Per-trace attribution is gated on the trace context, not on
   [enabled]: a daemon running with tracing off still accounts each
   request's counter activity to its trace (the flight recorder's
   store-hit bit depends on it).  Without a context this is one DLS read
   and a branch. *)
let attribute c n =
  match Domain.DLS.get trace_key with
  | None -> ()
  | Some tr -> trace_attr_counter tr c.c_name n

let incr c =
  if c.c_always || Atomic.get enabled_flag then Atomic.incr c.c_val;
  attribute c 1

let add c n =
  if c.c_always || Atomic.get enabled_flag then
    ignore (Atomic.fetch_and_add c.c_val n);
  attribute c n

let value c = Atomic.get c.c_val

(* ---------- histograms ---------- *)

type hist_stats = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

(* Every histogram counts observations into fixed log-spaced buckets
   (upper bounds 2^0, 2^1, ... 2^41, +Inf — values <= 1, including zero
   and negatives, land in the first bucket).  Bucket-derived quantiles
   are exact-by-bucket: the returned bound is a true upper bound on the
   nearest-rank percentile of the *whole* stream, never a sample
   estimate, at a resolution of one power of two.  This is also what
   the Prometheus exposition renders. *)
let n_buckets = 43

let bucket_bounds =
  Array.init n_buckets (fun i ->
      if i = n_buckets - 1 then infinity else float_of_int (1 lsl i))

let bucket_index x =
  if x <= 1.0 then 0
  else if Float.is_nan x then n_buckets - 1
  else begin
    let i = int_of_float (Float.ceil (Float.log2 x)) in
    if i < 0 then 0 else if i >= n_buckets - 1 then n_buckets - 1 else i
  end

type histogram = {
  hg_name : string;
  hg_mu : Mutex.t;
  hg_always : bool;
  mutable hg_count : int;
  mutable hg_sum : float;
  mutable hg_min : float;
  mutable hg_max : float;
  hg_buckets : int array;  (* per-bucket (non-cumulative) counts *)
}

let hists_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16
let hists_mu = Mutex.create ()

let histogram ?(always = false) name =
  Mutex.lock hists_mu;
  let h =
    match Hashtbl.find_opt hists_tbl name with
    | Some h -> h (* the flag is fixed at first intern *)
    | None ->
      let h =
        { hg_name = name; hg_mu = Mutex.create (); hg_always = always;
          hg_count = 0; hg_sum = 0.; hg_min = 0.; hg_max = 0.;
          hg_buckets = Array.make n_buckets 0
        }
      in
      Hashtbl.add hists_tbl name h;
      h
  in
  Mutex.unlock hists_mu;
  h

let observe h x =
  if h.hg_always || Atomic.get enabled_flag then begin
    Mutex.lock h.hg_mu;
    if h.hg_count = 0 then begin
      h.hg_min <- x;
      h.hg_max <- x
    end
    else begin
      if x < h.hg_min then h.hg_min <- x;
      if x > h.hg_max then h.hg_max <- x
    end;
    h.hg_count <- h.hg_count + 1;
    h.hg_sum <- h.hg_sum +. x;
    let i = bucket_index x in
    h.hg_buckets.(i) <- h.hg_buckets.(i) + 1;
    Mutex.unlock h.hg_mu
  end

(* The one nearest-rank rule: the 1-based rank of the q-th percentile
   among [n] ordered observations. *)
let nearest_rank n q =
  Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n /. 100.0)))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(Stdlib.min n (nearest_rank n q) - 1)

(* The upper bound of the bucket holding the nearest-rank q-th
   percentile of [total] observations counted in [buckets]. *)
let quantile_of_buckets buckets total q =
  if total = 0 then 0.0
  else begin
    let rank = nearest_rank total q in
    let rec walk i seen =
      if i >= n_buckets - 1 then bucket_bounds.(n_buckets - 1)
      else begin
        let seen = seen + buckets.(i) in
        if seen >= rank then bucket_bounds.(i) else walk (i + 1) seen
      end
    in
    walk 0 0
  end

let hist_buckets h =
  Mutex.lock h.hg_mu;
  let b = Array.copy h.hg_buckets in
  Mutex.unlock h.hg_mu;
  b

let bucket_quantile h q =
  let buckets = hist_buckets h in
  quantile_of_buckets buckets (Array.fold_left ( + ) 0 buckets) q

(* One locked snapshot; each percentile is its bucket's bound clamped to
   the exact maximum, so a single observation reports itself. *)
let hist_stats h =
  Mutex.lock h.hg_mu;
  let buckets = Array.copy h.hg_buckets in
  let s =
    { h_count = h.hg_count; h_sum = h.hg_sum; h_min = h.hg_min; h_max = h.hg_max;
      h_p50 = 0.; h_p90 = 0.; h_p99 = 0. }
  in
  Mutex.unlock h.hg_mu;
  let p q = Float.min (quantile_of_buckets buckets s.h_count q) s.h_max in
  { s with h_p50 = p 50.0; h_p90 = p 90.0; h_p99 = p 99.0 }

(* ---------- gauges ---------- *)

(* Callback gauges for live values (queue depth, cache size) that have
   no meaningful counter semantics.  Registration replaces by name so a
   re-created owner (e.g. a fresh test server) takes the slot over. *)
let gauges_tbl : (string, unit -> float) Hashtbl.t = Hashtbl.create 8
let gauges_mu = Mutex.create ()

let register_gauge name f =
  Mutex.lock gauges_mu;
  Hashtbl.replace gauges_tbl name f;
  Mutex.unlock gauges_mu

let gauges () =
  Mutex.lock gauges_mu;
  let fs = Hashtbl.fold (fun k f acc -> (k, f) :: acc) gauges_tbl [] in
  Mutex.unlock gauges_mu;
  (* sample outside the lock; a dead owner's callback must not take the
     registry down *)
  List.sort compare
    (List.filter_map
       (fun (k, f) -> match f () with v -> Some (k, v) | exception _ -> None)
       fs)

(* ---------- reset ---------- *)

let reset () =
  Mutex.lock registry_mu;
  (* Truncate in place: the owning domains' DLS slots still reference
     these buffers, so we must not drop them from under a live domain. *)
  List.iter
    (fun b ->
      b.b_len <- 0;
      b.b_stack <- [])
    !registry;
  Mutex.unlock registry_mu;
  Mutex.lock counters_mu;
  Hashtbl.iter (fun _ c -> Atomic.set c.c_val 0) counters_tbl;
  Mutex.unlock counters_mu;
  Mutex.lock hists_mu;
  Hashtbl.iter
    (fun _ h ->
      Mutex.lock h.hg_mu;
      h.hg_count <- 0;
      h.hg_sum <- 0.;
      h.hg_min <- 0.;
      h.hg_max <- 0.;
      Array.fill h.hg_buckets 0 n_buckets 0;
      Mutex.unlock h.hg_mu)
    hists_tbl;
  Mutex.unlock hists_mu;
  Mutex.lock traces_mu;
  Hashtbl.reset traces_tbl;
  Queue.clear traces_order;
  Mutex.unlock traces_mu

(* ---------- snapshots ---------- *)

let span_closed sp = sp.sp_end >= sp.sp_begin

let spans () =
  Mutex.lock registry_mu;
  let bufs = !registry in
  Mutex.unlock registry_mu;
  let out =
    List.concat_map
      (fun b ->
        List.init b.b_len (fun i ->
            let r = b.b_spans.(i) in
            {
              sp_name = r.rs_name;
              sp_detail = r.rs_detail;
              sp_domain = b.b_domain;
              sp_id = i;
              sp_parent = r.rs_parent;
              sp_trace = r.rs_trace;
              sp_begin = r.rs_begin;
              sp_end = r.rs_end;
            }))
      bufs
  in
  List.sort (fun a b -> compare (a.sp_domain, a.sp_id) (b.sp_domain, b.sp_id)) out

let counters () =
  Mutex.lock counters_mu;
  let out = Hashtbl.fold (fun _ c acc -> (c.c_name, Atomic.get c.c_val) :: acc) counters_tbl [] in
  Mutex.unlock counters_mu;
  List.sort compare out

let histograms () =
  Mutex.lock hists_mu;
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) hists_tbl [] in
  Mutex.unlock hists_mu;
  List.sort compare (List.map (fun h -> (h.hg_name, hist_stats h)) hs)

let histogram_handles () =
  Mutex.lock hists_mu;
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) hists_tbl [] in
  Mutex.unlock hists_mu;
  List.sort (fun a b -> compare a.hg_name b.hg_name) hs
  |> List.map (fun h -> (h.hg_name, h))

(* ---------- aggregation & sinks ---------- *)

type agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;
  agg_min : float;
  agg_max : float;
}

let aggregate_spans sps =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let cur =
        match Hashtbl.find_opt tbl sp.sp_name with
        | Some a -> a
        | None -> { agg_name = sp.sp_name; agg_count = 0; agg_total = 0.; agg_min = infinity; agg_max = 0. }
      in
      let a =
        if span_closed sp then begin
          let d = sp.sp_end -. sp.sp_begin in
          {
            cur with
            agg_count = cur.agg_count + 1;
            agg_total = cur.agg_total +. d;
            agg_min = Float.min cur.agg_min d;
            agg_max = Float.max cur.agg_max d;
          }
        end
        else { cur with agg_count = cur.agg_count + 1 }
      in
      Hashtbl.replace tbl sp.sp_name a)
    sps;
  let out = Hashtbl.fold (fun _ a acc -> a :: acc) tbl [] in
  let out = List.map (fun a -> if a.agg_min = infinity then { a with agg_min = 0. } else a) out in
  List.sort (fun a b -> compare a.agg_name b.agg_name) out

let pp_summary_aggs ppf aggs =
  Format.fprintf ppf "%-34s %7s %12s %12s %12s@."
    "span" "count" "total ms" "min ms" "max ms";
  List.iter
    (fun a ->
      Format.fprintf ppf "%-34s %7d %12.3f %12.3f %12.3f@."
        a.agg_name a.agg_count (a.agg_total *. 1e3) (a.agg_min *. 1e3) (a.agg_max *. 1e3))
    aggs

let pp_counters ppf cs =
  Format.fprintf ppf "%-34s %12s@." "counter" "value";
  List.iter (fun (name, v) -> Format.fprintf ppf "%-34s %12d@." name v) cs

let pp_histograms ppf hs =
  Format.fprintf ppf "%-34s %7s %12s %12s %12s %12s %12s %12s@."
    "histogram" "count" "min" "mean" "p50<=" "p90<=" "p99<=" "max";
  List.iter
    (fun (name, s) ->
      let mean = if s.h_count = 0 then 0. else s.h_sum /. float_of_int s.h_count in
      Format.fprintf ppf "%-34s %7d %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f@."
        name s.h_count s.h_min mean s.h_p50 s.h_p90 s.h_p99 s.h_max)
    hs

let pp_summary ppf () =
  let aggs = aggregate_spans (spans ()) in
  if aggs <> [] then Format.fprintf ppf "-- spans --@.%a" pp_summary_aggs aggs;
  let cs = counters () in
  if cs <> [] then Format.fprintf ppf "-- counters --@.%a" pp_counters cs;
  let hs = List.filter (fun (_, s) -> s.h_count > 0) (histograms ()) in
  if hs <> [] then Format.fprintf ppf "-- histograms --@.%a" pp_histograms hs

let chrome_events sps =
  let t0 = List.fold_left (fun acc sp -> Float.min acc sp.sp_begin) infinity sps in
  let t0 = if t0 = infinity then 0. else t0 in
  List.filter_map
    (fun sp ->
      if not (span_closed sp) then None
      else
        let base =
          [
            ("name", Json.Str sp.sp_name);
            ("cat", Json.Str "unit");
            ("ph", Json.Str "X");
            ("pid", Json.Num 1.);
            ("tid", Json.Num (float_of_int sp.sp_domain));
            ("ts", Json.Num ((sp.sp_begin -. t0) *. 1e6));
            ("dur", Json.Num ((sp.sp_end -. sp.sp_begin) *. 1e6));
          ]
        in
        let arg_fields =
          (if sp.sp_detail = "" then [] else [ ("detail", Json.Str sp.sp_detail) ])
          @ if sp.sp_trace = "" then [] else [ ("trace_id", Json.Str sp.sp_trace) ]
        in
        let args =
          if arg_fields = [] then [] else [ ("args", Json.Obj arg_fields) ]
        in
        Some (Json.Obj (base @ args)))
    sps

let hist_json (name, s) =
  ( name,
    Json.Obj
      [
        ("count", Json.Num (float_of_int s.h_count));
        ("sum", Json.Num s.h_sum);
        ("min", Json.Num s.h_min);
        ("max", Json.Num s.h_max);
        ("p50", Json.Num s.h_p50);
        ("p90", Json.Num s.h_p90);
        ("p99", Json.Num s.h_p99);
      ] )

let chrome_trace () =
  let events = chrome_events (spans ()) in
  let counters_json = List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (counters ()) in
  let hists_json = List.map hist_json (histograms ()) in
  Json.Obj
    [
      ("traceEvents", Json.Arr events);
      ("displayTimeUnit", Json.Str "ms");
      ("counters", Json.Obj counters_json);
      ("histograms", Json.Obj hists_json);
    ]

let stats_json () =
  let counters_json =
    List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (counters ())
  in
  let hists_json =
    List.map hist_json (List.filter (fun (_, s) -> s.h_count > 0) (histograms ()))
  in
  let spans_json =
    List.map
      (fun a ->
        Json.Obj
          [
            ("name", Json.Str a.agg_name);
            ("count", Json.Num (float_of_int a.agg_count));
            ("total_s", Json.Num a.agg_total);
          ])
      (aggregate_spans (spans ()))
  in
  Json.Obj
    [
      ("enabled", Json.Bool (enabled ()));
      ("counters", Json.Obj counters_json);
      ("histograms", Json.Obj hists_json);
      ("spans", Json.Arr spans_json);
    ]

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (chrome_trace ())))

(* The finished span tree of one request-scoped trace, as a Chrome
   trace document: only the spans/counters/diags attributed to [id].
   [None] for an id never begun (or already evicted from the bounded
   trace store). *)
let trace_chrome id =
  match trace_spans id with
  | None -> None
  | Some sps ->
    let counters_json =
      List.map
        (fun (k, v) -> (k, Json.Num (float_of_int v)))
        (Option.value ~default:[] (trace_counters id))
    in
    let diags_json =
      List.map (fun d -> Json.Str d) (Option.value ~default:[] (trace_diags id))
    in
    Some
      (Json.Obj
         [
           ("trace_id", Json.Str id);
           ("traceEvents", Json.Arr (chrome_events sps));
           ("displayTimeUnit", Json.Str "ms");
           ("counters", Json.Obj counters_json);
           ("diags", Json.Arr diags_json);
         ])

let tensorize_stages =
  [
    "tensorize.inspect";
    "tensorize.reorganize";
    "tensorize.tune";
    "tensorize.lower_replace";
    "tensorize.analyze";
  ]
