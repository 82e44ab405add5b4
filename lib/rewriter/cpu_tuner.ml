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
   the tuner asks for the same handful of extents once per split decision
   in every candidate. *)
let divisors_cache : (int, int list) Hashtbl.t = Hashtbl.create 64
let divisors_lock = Mutex.create ()

let divisors n =
  Mutex.lock divisors_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock divisors_lock)
    (fun () ->
      match Hashtbl.find_opt divisors_cache n with
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
        let ds = List.rev_append !small !large in
        Hashtbl.add divisors_cache n ds;
        ds)

(* The largest divisor of [extent] that is <= [budget]. *)
let best_divisor extent budget =
  List.fold_left (fun acc d -> if d <= budget then Stdlib.max acc d else acc) 1
    (divisors extent)

let is_dp (it : Schedule.Iter.t) = it.kind = Axis.Data_parallel

(* Greedily take whole loops from [iters] (outermost first) while the
   running product stays within [budget]; when the next loop overflows,
   split a [chunk]-sized outer piece off it.  Returns
   (schedule, taken, leftovers). *)
let take_parallel s iters budget =
  let rec go s acc taken = function
    | [] -> (s, List.rev taken, [])
    | (it : Schedule.Iter.t) :: rest ->
      if acc * it.extent <= budget then go s (acc * it.extent) (it :: taken) rest
      else begin
        let want = budget / acc in
        let chunk = best_divisor it.extent want in
        if chunk <= 1 then (s, List.rev taken, it :: rest)
        else begin
          let s, outer, inner = Schedule.split s it ~factor:(it.extent / chunk) in
          (s, List.rev (outer :: taken), inner :: rest)
        end
      end
  in
  go s 1 [] iters

(* For the unroll group we walk the dp loops from the innermost side and
   split chunks off the inner end. *)
let take_unroll s iters_rev budget =
  let rec go s acc taken = function
    | [] -> (s, taken, [])
    | (it : Schedule.Iter.t) :: rest ->
      if acc * it.extent <= budget then go s (acc * it.extent) (it :: taken) rest
      else begin
        let want = budget / acc in
        let chunk = best_divisor it.extent want in
        if chunk <= 1 then (s, taken, it :: rest)
        else begin
          let s, outer, inner = Schedule.split s it ~factor:chunk in
          (s, inner :: taken, outer :: rest)
        end
      end
  in
  (* [taken] accumulates back in outer-to-inner order *)
  let s, taken, leftovers_rev = go s 1 [] iters_rev in
  (s, taken, List.rev leftovers_rev)

let apply (r : Reorganize.t) config =
  let s = r.Reorganize.schedule in
  let outer_dp = List.filter is_dp r.Reorganize.outer in
  let outer_red =
    List.filter (fun it -> not (is_dp it)) r.Reorganize.outer
  in
  (* second breaking point first: carve the unroll group off the inner end
     of the dp nest (it may split a loop the parallel group would
     otherwise swallow whole) *)
  let s, unroll_group, remaining_dp =
    take_unroll s (List.rev outer_dp) config.unroll_budget
  in
  (* first breaking point: the parallel group from the outer end *)
  let s, parallel_group, serial_dp =
    take_parallel s remaining_dp config.parallel_grain
  in
  let order = parallel_group @ serial_dp @ outer_red @ unroll_group @ r.Reorganize.region in
  let s = Schedule.reorder s order in
  let s, fused =
    match parallel_group with
    | [] -> (s, None)
    | group ->
      let s, fused = Schedule.fuse_many s group in
      (s, Some fused)
  in
  let s =
    match fused with
    | Some it -> Schedule.annotate s it Schedule.Parallel
    | None -> s
  in
  List.fold_left (fun s it -> Schedule.annotate s it Schedule.Unroll) s unroll_group

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

(* Both breaking points greedily accumulate whole dp loops while
   [acc * extent <= budget], so any budget at or above the dp
   iteration-space product behaves exactly like the product itself.
   Clamping both budgets to that product therefore maps each config to a
   behavioural equivalence class; we evaluate only the first config of
   each class.  The strict [<] in the fold below means the first of a
   class of equal candidates won either way, so pruning is
   result-preserving (same winner, same [t_config]). *)
let prune_configs (r : Reorganize.t) configs =
  let dp_product =
    List.fold_left
      (fun acc (it : Schedule.Iter.t) -> if is_dp it then acc * it.extent else acc)
      1 r.Reorganize.outer
  in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let key = (min c.parallel_grain dp_product, min c.unroll_budget dp_product) in
      if Hashtbl.mem seen key then begin
        Obs.incr c_pruned;
        false
      end
      else begin
        Hashtbl.add seen key ();
        true
      end)
    configs

(* One configuration realized: schedule, lowered and replaced kernel,
   modelled estimate.  Opens only the [tensorize.lower_replace] span; the
   callers wrap it in their own. *)
let realize spec ?threads (r : Reorganize.t) config =
  let schedule = apply r config in
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
  realize spec ?threads r config

let tune spec ?threads (r : Reorganize.t) =
  let tune_tok = Obs.start "tensorize.tune" in
  Fun.protect ~finally:(fun () -> Obs.stop tune_tok) @@ fun () ->
  let evaluate config =
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
    realize spec ?threads r config
  in
  match prune_configs r (candidate_configs spec) with
  | [] -> assert false (* the grid is never empty and its first config is always kept *)
  | first :: rest ->
    let first = evaluate first in
    Obs.observe h_best first.t_estimate.Unit_machine.Cpu_model.est_cycles;
    List.fold_left
      (fun best config ->
        let candidate = evaluate config in
        if
          candidate.t_estimate.Unit_machine.Cpu_model.est_cycles
          < best.t_estimate.Unit_machine.Cpu_model.est_cycles
        then begin
          Obs.incr c_improvements;
          Obs.observe h_best candidate.t_estimate.Unit_machine.Cpu_model.est_cycles;
          candidate
        end
        else best)
      first rest
