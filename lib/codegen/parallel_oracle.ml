(* A small OCaml 5 domain pool for embarrassingly-parallel work:
   per-(op, ISA) differential checks in the tests, the warm-up
   scheduler's compile jobs, and emitted kernels' [Parallel] loops.

   Work is a shared atomic counter over an array of items; each domain
   claims the next index until the array is drained.  The first exception
   wins and is re-raised (with its backtrace) on the calling domain after
   every worker has joined, so no work is left running. *)

module Obs = Unit_obs.Obs

(* Counted at submission, so the total is identical whatever the domain
   count — the determinism tests rely on this. *)
let c_tasks = Obs.counter "oracle.tasks"

let default_domains () =
  match Sys.getenv_opt "UNIT_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let map ?domains f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  Obs.add c_tasks n;
  let d = Stdlib.min (match domains with Some d -> d | None -> default_domains ()) n in
  if d <= 1 || n <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue_ := false
        else
          match f items.(i) with
          | r -> results.(i) <- Some r
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            (* keep only the first failure; losers just stop claiming *)
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue_ := false
      done
    in
    let workers = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join workers;
    (match Atomic.get failure with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some r -> r
           | None ->
             (* unreachable without a failure, which re-raised above *)
             invalid_arg (Printf.sprintf "Parallel_oracle.map: item %d unprocessed" i))
         results)
  end

let iter ?domains f xs = ignore (map ?domains (fun x -> f x) xs : unit list)

(* Per-item failure isolation: one poisoned workload must not sink a whole
   warm-up batch, so each application's exception is captured in its slot
   instead of aborting the pool. *)
let try_map ?domains f xs =
  map ?domains (fun x -> match f x with r -> Ok r | exception e -> Error e) xs
