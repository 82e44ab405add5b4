(* Bounded ring of per-request completion records.  See flight.mli. *)

module Json = Unit_obs.Json

type entry = {
  fl_trace : string;
  fl_key : string;
  fl_outcome : string;
  fl_coalesced : bool;
  fl_queue_us : float;
  fl_run_us : float;
  fl_engine : string;
  fl_store_hit : bool;
}

type t = {
  mu : Mutex.t;
  slots : entry option array;
  mutable next : int;  (* total records ever; next mod cap is the write slot *)
}

let default_cap = 4096

let create ?(cap = default_cap) () =
  if cap < 1 then invalid_arg "Flight.create: cap must be >= 1";
  { mu = Mutex.create (); slots = Array.make cap None; next = 0 }

let cap t = Array.length t.slots

let record t e =
  Mutex.lock t.mu;
  t.slots.(t.next mod Array.length t.slots) <- Some e;
  t.next <- t.next + 1;
  Mutex.unlock t.mu

let recorded t =
  Mutex.lock t.mu;
  let n = t.next in
  Mutex.unlock t.mu;
  n

let total_us e = e.fl_queue_us +. e.fl_run_us

(* Oldest-first snapshot of the live window, then the optional filters:
   [errors_only] keeps non-"ok" outcomes, [slower_than_us] keeps
   requests whose total latency exceeds the bound, and [last] keeps the
   most recent N *after* the other filters. *)
let entries ?last ?(errors_only = false) ?slower_than_us t =
  Mutex.lock t.mu;
  let capn = Array.length t.slots in
  let live = min t.next capn in
  let first = t.next - live in
  let window =
    List.init live (fun i ->
        match t.slots.((first + i) mod capn) with
        | Some e -> e
        | None -> assert false (* slots below [next] are always filled *))
  in
  Mutex.unlock t.mu;
  let window =
    if errors_only then List.filter (fun e -> e.fl_outcome <> "ok") window
    else window
  in
  let window =
    match slower_than_us with
    | None -> window
    | Some bound -> List.filter (fun e -> total_us e > bound) window
  in
  match last with
  | None -> window
  | Some n when n < 0 -> invalid_arg "Flight.entries: last must be >= 0"
  | Some n ->
    let len = List.length window in
    if len <= n then window else List.filteri (fun i _ -> i >= len - n) window

let exact_percentile entries p =
  let arr = Array.of_list (List.map total_us entries) in
  Array.sort compare arr;
  Unit_obs.Obs.percentile arr p

let entry_to_json e =
  Json.Obj
    [ ("trace_id", Json.Str e.fl_trace);
      ("key", Json.Str e.fl_key);
      ("outcome", Json.Str e.fl_outcome);
      ("coalesced", Json.Bool e.fl_coalesced);
      ("queue_us", Json.Num e.fl_queue_us);
      ("run_us", Json.Num e.fl_run_us);
      ("engine", Json.Str e.fl_engine);
      ("store_hit", Json.Bool e.fl_store_hit)
    ]

let entry_of_json j =
  let ( let* ) r f = Result.bind r f in
  let* fl_trace = Json.str_field "trace_id" j in
  let* fl_key = Json.str_field "key" j in
  let* fl_outcome = Json.str_field "outcome" j in
  let* fl_coalesced = Json.bool_field "coalesced" j in
  let* fl_queue_us = Json.num_field "queue_us" j in
  let* fl_run_us = Json.num_field "run_us" j in
  let* fl_engine = Json.str_field "engine" j in
  let* fl_store_hit = Json.bool_field "store_hit" j in
  Ok { fl_trace; fl_key; fl_outcome; fl_coalesced; fl_queue_us; fl_run_us;
       fl_engine; fl_store_hit }

let pp_entry ppf e =
  Format.fprintf ppf "%-14s %-40s %-14s %c q=%8.0fus r=%10.0fus %-11s %s"
    e.fl_trace e.fl_key e.fl_outcome
    (if e.fl_coalesced then 'C' else '.')
    e.fl_queue_us e.fl_run_us e.fl_engine
    (if e.fl_store_hit then "store-hit" else "")

let dump ?(last = 32) oc t =
  let window = entries ~last t in
  let total = recorded t in
  Printf.fprintf oc
    "flight recorder: %d request(s) recorded, window cap %d, last %d:\n" total
    (cap t) (List.length window);
  List.iter
    (fun e -> Printf.fprintf oc "  %s\n" (Format.asprintf "%a" pp_entry e))
    window;
  flush oc
