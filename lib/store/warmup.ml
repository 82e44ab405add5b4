(* The concurrent warm-up scheduler: dedup by job key, then bounded
   retries over the Parallel_oracle domain pool.  See warmup.mli. *)

module Pipeline = Unit_core.Pipeline
module Parallel_oracle = Unit_codegen.Parallel_oracle
module Workload = Unit_graph.Workload
module Obs = Unit_obs.Obs

let c_jobs = Obs.counter "warmup.jobs"
let c_compiled = Obs.counter "warmup.compiled"
let c_dedup = Obs.counter "warmup.dedup"
let c_retry = Obs.counter "warmup.retry"
let c_fail = Obs.counter "warmup.fail"

type target = Pipeline.target = X86 | Arm

let target_to_string = Pipeline.target_to_string

type job = {
  job_key : string;
  job_compile : unit -> unit;
}

(* The key is the pipeline memo's identity plus the engine: jobs for one
   workload under different engines do different work (the emitted
   engine additionally bakes a .cmxs artifact) and must not be deduped.
   Their tuning is still shared: both hit one memo key, which tunes
   once. *)
let job ?(engine = Pipeline.Compiled) target wl =
  { job_key = Pipeline.kernel_key target wl ^ "#" ^ Pipeline.engine_to_string engine;
    job_compile = (fun () -> Pipeline.bake engine target (Pipeline.compiled target wl))
  }

let jobs_of_graph ?engine target g =
  List.map
    (fun (wl, _) -> job ?engine target (Workload.Conv wl))
    (Unit_models.Zoo.conv_workloads g)
  @ List.map
      (fun (wl, _) -> job ?engine target (Workload.Fc wl))
      (Unit_models.Zoo.dense_workloads g)

let jobs_of_model ?engine target name =
  Result.map (jobs_of_graph ?engine target)
    (Unit_core.Memplan.build_graph ~model:name ~act_dtype:(Pipeline.target_act_dtype target))

let jobs_of_zoo ?engine target =
  (* concatenated without pre-dedup: shared layers across models are
     left for [run]'s dedup pass, and exercise its dedup counter *)
  List.concat_map
    (fun (_, build) -> jobs_of_graph ?engine target (build ()))
    Unit_models.Zoo.all

let jobs_of_table1 ?engine target ?index () =
  let conv wl = job ?engine target (Workload.Conv wl) in
  match index with
  | None -> Ok (Array.to_list (Array.map conv Unit_models.Table1.workloads))
  | Some i -> Result.map (fun wl -> [ conv wl ]) (Unit_models.Table1.row i)

(* Bounded exponential backoff with deterministic jitter: base 20 ms
   doubling per failed attempt, capped at 500 ms, scaled into [0.5, 1.0]
   by a hash of (key, attempt) so concurrent domains retrying different
   jobs desynchronize — and the whole schedule stays pure/testable. *)
let backoff_s ~key ~attempt =
  if attempt < 1 then 0.0
  else begin
    let base = Float.min (0.02 *. (2.0 ** float_of_int (attempt - 1))) 0.5 in
    let jitter =
      let h = Hashtbl.hash (key, attempt) land 0xffff in
      0.5 +. (0.5 *. (float_of_int h /. 65535.0))
    in
    base *. jitter
  end

type 'a attempts =
  | Done of 'a
  | Rejected of string
  | Gave_up of exn * int

let with_retries ?(sleep = Unix.sleepf) ~retries ~on_retry ~key f =
  let rec attempt n =
    match f n with
    | v -> Done v
    | exception Invalid_argument reason ->
      (* deterministic pipeline rejection (does not tensorize):
         retrying cannot change the answer *)
      Rejected reason
    | exception e when n <= retries ->
      on_retry n e;
      sleep (backoff_s ~key ~attempt:n);
      attempt (n + 1)
    | exception e -> Gave_up (e, n)
  in
  attempt 1

(* ---------- execution ---------- *)

type failure = {
  f_key : string;
  f_error : string;
  f_attempts : int;
}

type report = {
  rp_jobs : int;
  rp_compiled : int;
  rp_deduped : int;
  rp_skipped : (string * string) list;
  rp_retries : int;
  rp_failures : failure list;
  rp_elapsed_s : float;
}

type outcome =
  | Compiled
  | Skipped of string
  | Failed of failure

let run ?domains ?(retries = 1) jobs =
  if retries < 0 then invalid_arg "Warmup.run: retries must be >= 0";
  let t0 = Unix.gettimeofday () in
  Obs.add c_jobs (List.length jobs);
  (* one sequential pass: the first job of each key runs, later ones are
     deduped before anything is scheduled *)
  let seen = Hashtbl.create 64 in
  let unique =
    List.filter
      (fun job ->
        let first = not (Hashtbl.mem seen job.job_key) in
        if first then Hashtbl.add seen job.job_key () else Obs.incr c_dedup;
        first)
      jobs
  in
  let retries_spent = Atomic.make 0 in
  let execute job =
    let tok =
      if Obs.enabled () then Obs.start "warmup.workload" ~detail:job.job_key
      else Obs.null_span
    in
    Fun.protect ~finally:(fun () -> Obs.stop tok) @@ fun () ->
    let on_retry _ _ =
      Obs.incr c_retry;
      Atomic.incr retries_spent
    in
    match with_retries ~retries ~on_retry ~key:job.job_key (fun _ -> job.job_compile ()) with
    | Done () ->
      Obs.incr c_compiled;
      Compiled
    | Rejected reason -> Skipped reason
    | Gave_up (e, n) ->
      Obs.incr c_fail;
      Failed { f_key = job.job_key; f_error = Printexc.to_string e; f_attempts = n }
  in
  let outcomes =
    List.map
      (function
        | Ok o -> o
        | Error e ->
          (* [execute] catches everything job-related; this arm only fires
             if the harness itself throws (e.g. out of memory) *)
          Obs.incr c_fail;
          Failed { f_key = "<scheduler>"; f_error = Printexc.to_string e; f_attempts = 0 })
      (Parallel_oracle.try_map ?domains execute unique)
  in
  let count p = List.length (List.filter p outcomes) in
  { rp_jobs = List.length jobs;
    rp_compiled = count (function Compiled -> true | _ -> false);
    rp_deduped = List.length jobs - List.length unique;
    rp_skipped =
      List.filter_map
        (function
          | (Skipped reason : outcome), key -> Some (key, reason)
          | _ -> None)
        (List.map2 (fun o j -> (o, j.job_key)) outcomes unique);
    rp_retries = Atomic.get retries_spent;
    rp_failures =
      List.filter_map (function Failed f -> Some f | _ -> None) outcomes;
    rp_elapsed_s = Unix.gettimeofday () -. t0
  }

let pp_report fmt r =
  Format.fprintf fmt
    "warm-up: %d job(s) -> %d compiled, %d deduped, %d skipped, %d failed in %.2f s"
    r.rp_jobs r.rp_compiled r.rp_deduped
    (List.length r.rp_skipped)
    (List.length r.rp_failures) r.rp_elapsed_s;
  if r.rp_retries > 0 then Format.fprintf fmt " (%d retr%s)" r.rp_retries
      (if r.rp_retries = 1 then "y" else "ies");
  List.iter
    (fun (key, reason) -> Format.fprintf fmt "@.  skipped %s: %s" key reason)
    r.rp_skipped;
  List.iter
    (fun f ->
      Format.fprintf fmt "@.  FAILED %s after %d attempt(s): %s" f.f_key
        f.f_attempts f.f_error)
    r.rp_failures
