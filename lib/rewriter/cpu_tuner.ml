open Unit_dsl
module Obs = Unit_obs.Obs

type config = {
  parallel_grain : int;
  unroll_budget : int;
}

(* Bumped whenever the search space, [apply], or the machine model's view
   of a config changes meaning: persisted tuning records carry it, so a
   stale database re-tunes instead of resurrecting configs that no longer
   mean what they did. *)
let version = 1

let config_to_json (c : config) =
  Unit_obs.Json.Obj
    [ ("grain", Unit_obs.Json.Num (float_of_int c.parallel_grain));
      ("unroll", Unit_obs.Json.Num (float_of_int c.unroll_budget))
    ]

let config_of_json j =
  let field name =
    Result.bind (Unit_obs.Json.int_field name j) (fun v ->
        if v >= 1 then Ok v
        else Error (Printf.sprintf "config field %s: %d is not positive" name v))
  in
  match field "grain", field "unroll" with
  | Ok parallel_grain, Ok unroll_budget -> Ok { parallel_grain; unroll_budget }
  | Error e, _ | _, Error e -> Error e

(* Search telemetry (all no-ops unless tracing is enabled). *)
let c_candidates = Obs.counter "tuner.candidates"
let c_pruned = Obs.counter "tuner.pruned"
let c_improvements = Obs.counter "tuner.improvements"
let h_best = Obs.histogram "tuner.best_cycles"

let default_config = { parallel_grain = 3000; unroll_budget = 8 }
let parallel_only = { default_config with unroll_budget = 1 }

(* Divisors in ascending order, enumerated in O(sqrt n) pairs and memoized:
   every config of every sweep asks for the same handful of extents.  The
   memo is an immutable map behind an [Atomic], so a lookup takes no lock
   and sweeps on several domains share it. *)
module Int_map = Map.Make (Int)

let divisors_memo : int array Int_map.t Atomic.t = Atomic.make Int_map.empty

let divisors n =
  match Int_map.find_opt n (Atomic.get divisors_memo) with
  | Some ds -> ds
  | None ->
    let small = ref [] and large = ref [] in
    let d = ref 1 in
    while !d * !d <= n do
      if n mod !d = 0 then begin
        small := !d :: !small;
        if !d <> n / !d then large := (n / !d) :: !large
      end;
      incr d
    done;
    let ds = Array.of_list (List.rev_append !small !large) in
    let rec publish () =
      let memo = Atomic.get divisors_memo in
      if not (Atomic.compare_and_set divisors_memo memo (Int_map.add n ds memo)) then publish ()
    in
    publish ();
    ds

(* The largest divisor of [extent] that is <= [budget] (1 when none is). *)
let best_divisor extent budget =
  let ds = divisors extent in
  let i = ref (Array.length ds - 1) in
  while !i > 0 && ds.(!i) > budget do
    decr i
  done;
  ds.(!i)

let is_dp (it : Schedule.Iter.t) = it.kind = Axis.Data_parallel

(* A config's two breaking points, as integers computed from the dp
   extents alone.  Both groups greedily take whole loops while the running
   product stays within the budget; when the next loop overflows, a
   [chunk]-sized piece of it joins the group ([chunk] = 1: none).  The unroll
   group walks the dp loops from the inner end; the parallel group then
   walks what is left from the outer end.  [build] makes the schedule from
   these integers alone, so configs with equal decisions give the same
   schedule. *)
type decision = {
  unroll_loops : int;
  unroll_chunk : int;
  parallel_loops : int;
  parallel_chunk : int;
}

(* Of [count] loops with extents [extent 0], [extent 1], …: how many whole
   loops the group takes, and the chunk of the next one *)
let take count extent budget =
  let rec go i acc =
    if i = count then (i, 1)
    else
      let e = extent i in
      if acc * e <= budget then go (i + 1) (acc * e) else (i, best_divisor e (budget / acc))
  in
  go 0 1

(* The dp extents, outer to inner. *)
let dp_extents (r : Reorganize.t) =
  Array.of_list
    (List.filter_map
       (fun (it : Schedule.Iter.t) -> if is_dp it then Some it.extent else None)
       r.Reorganize.outer)

let decide_on dp config =
  let n = Array.length dp in
  (* second breaking point first: it may split a loop the parallel group
     would otherwise swallow whole *)
  let unroll_loops, unroll_chunk = take n (fun i -> dp.(n - 1 - i)) config.unroll_budget in
  (* the parallel group sees the unroll chunk's outer piece in place of
     the loop it split *)
  let left = n - unroll_loops in
  let extent j = if j = left - 1 && unroll_chunk > 1 then dp.(j) / unroll_chunk else dp.(j) in
  let parallel_loops, parallel_chunk = take left extent config.parallel_grain in
  { unroll_loops; unroll_chunk; parallel_loops; parallel_chunk }

let decide r config = decide_on (dp_extents r) config

let same_decision a b =
  a.unroll_loops = b.unroll_loops && a.unroll_chunk = b.unroll_chunk
  && a.parallel_loops = b.parallel_loops && a.parallel_chunk = b.parallel_chunk

(* [n] elements off the front of [l], and the rest *)
let split_at n l =
  let rec go n taken l =
    if n = 0 then (List.rev taken, l) else go (n - 1) (List.hd l :: taken) (List.tl l)
  in
  go n [] l

let build (r : Reorganize.t) d =
  let s = r.Reorganize.schedule in
  let outer_dp = List.filter is_dp r.Reorganize.outer in
  let outer_red = List.filter (fun it -> not (is_dp it)) r.Reorganize.outer in
  (* the unroll group, inner end first; a chunk splits off the inner end *)
  let taken_rev, rest_rev = split_at d.unroll_loops (List.rev outer_dp) in
  let s, unroll_group, remaining_rev =
    match rest_rev with
    | it :: rest when d.unroll_chunk > 1 ->
      let s, outer, inner = Schedule.split s it ~factor:d.unroll_chunk in
      (s, inner :: List.rev taken_rev, outer :: rest)
    | rest -> (s, List.rev taken_rev, rest)
  in
  (* the parallel group from the outer end; a chunk splits off the outer end *)
  let taken, rest = split_at d.parallel_loops (List.rev remaining_rev) in
  let s, parallel_group, serial_dp =
    match rest with
    | (it : Schedule.Iter.t) :: rest when d.parallel_chunk > 1 ->
      let s, outer, inner = Schedule.split s it ~factor:(it.extent / d.parallel_chunk) in
      (s, taken @ [ outer ], inner :: rest)
    | rest -> (s, taken, rest)
  in
  let order = parallel_group @ serial_dp @ outer_red @ unroll_group @ r.Reorganize.region in
  let s = Schedule.reorder s order in
  let s =
    match parallel_group with
    | [] -> s
    | group ->
      let s, fused = Schedule.fuse_many s group in
      Schedule.annotate s fused Schedule.Parallel
  in
  List.fold_left (fun s it -> Schedule.annotate s it Schedule.Unroll) s unroll_group

let apply r config = build r (decide r config)

let compile r config = Replace.run (Unit_tir.Lower.lower (apply r config))

type tuned = {
  t_config : config;
  t_schedule : Schedule.t;
  t_func : Unit_tir.Lower.func;
  t_estimate : Unit_machine.Cpu_model.estimate;
  t_report : Unit_machine.Cost_report.t;
}

let candidate_configs (spec : Unit_machine.Spec.cpu) =
  let grains =
    List.sort_uniq compare
      [ spec.Unit_machine.Spec.cores;
        2 * spec.Unit_machine.Spec.cores;
        4 * spec.Unit_machine.Spec.cores;
        8 * spec.Unit_machine.Spec.cores;
        default_config.parallel_grain
      ]
  in
  (* 16 independent i32x16 accumulators already claim half the vector
     register file; beyond that real kernels spill *)
  let unrolls = [ 1; 2; 4; 8; 16 ] in
  List.concat_map
    (fun parallel_grain ->
      List.map (fun unroll_budget -> { parallel_grain; unroll_budget }) unrolls)
    grains

(* One configuration realized: schedule, lowered and replaced kernel,
   modelled estimate.  Opens only the [tensorize.lower_replace] span; the
   callers wrap it in their own. *)
let realize spec ?threads config schedule =
  let lr_tok = Obs.start "tensorize.lower_replace" in
  let func =
    Fun.protect
      ~finally:(fun () -> Obs.stop lr_tok)
      (fun () -> Replace.run (Unit_tir.Lower.lower schedule))
  in
  let estimate, report = Unit_machine.Cpu_model.estimate_with_report spec ?threads func in
  { t_config = config; t_schedule = schedule; t_func = func; t_estimate = estimate;
    t_report = report }

(* The warm path: realize one stored configuration without the sweep.
   Deliberately opens no [tensorize.tune] / [tuner.candidate] spans — the
   absence of those spans under tracing is how a warm start is audited
   (see [unitc warmup] and the @warmup-smoke alias). *)
let of_config spec ?threads (r : Reorganize.t) config =
  let tok = Obs.start "tensorize.from_config" in
  Fun.protect ~finally:(fun () -> Obs.stop tok) @@ fun () ->
  realize spec ?threads config (apply r config)

(* Only the first config of each decision class (in grid order) is
   realized: equal decisions build the same schedule, and the strict [<]
   keeps the first of equal candidates, so the winner is the exhaustive
   sweep's. *)
let tune spec ?threads (r : Reorganize.t) =
  let tune_tok = Obs.start "tensorize.tune" in
  Fun.protect ~finally:(fun () -> Obs.stop tune_tok) @@ fun () ->
  let evaluate config decision =
    let tok =
      if Obs.enabled () then
        Obs.start "tuner.candidate"
          ~detail:
            (Printf.sprintf "grain=%d unroll=%d" config.parallel_grain
               config.unroll_budget)
      else Obs.null_span
    in
    Fun.protect ~finally:(fun () -> Obs.stop tok) @@ fun () ->
    Obs.incr c_candidates;
    realize spec ?threads config (build r decision)
  in
  let dp = dp_extents r in
  let seen = ref [] in
  let best =
    List.fold_left
      (fun best config ->
        let decision = decide_on dp config in
        if List.exists (same_decision decision) !seen then begin
          Obs.incr c_pruned;
          best
        end
        else begin
          seen := decision :: !seen;
          let candidate = evaluate config decision in
          let cycles = candidate.t_estimate.Unit_machine.Cpu_model.est_cycles in
          match best with
          | None ->
            Obs.observe h_best cycles;
            Some candidate
          | Some b when cycles < b.t_estimate.Unit_machine.Cpu_model.est_cycles ->
            Obs.incr c_improvements;
            Obs.observe h_best cycles;
            Some candidate
          | Some _ -> best
        end)
      None (candidate_configs spec)
  in
  match best with
  | Some best -> best
  | None -> assert false (* the grid is never empty *)
