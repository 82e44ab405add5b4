(* Benchmark harness entry point.

   - `dune exec bench/main.exe` runs every experiment (Table I, Figs. 1 and
     8-13) and prints a paper-vs-measured summary.
   - `dune exec bench/main.exe <exp>...` runs a subset (e.g. `fig10`);
     only a full run rewrites BENCH_obs.json, which holds every outcome. *)

let () = Unit_isa.Defs.ensure_registered ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let chosen =
    match args with
    | [] -> Experiments.all
    | names ->
      List.filter_map
        (fun name ->
          match List.assoc_opt name Experiments.all with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %s (have: %s)\n" name
              (String.concat ", " (List.map fst Experiments.all));
            exit 1)
        names
  in
  (* trace the whole run so BENCH_obs.json captures where compilation and
     execution time went alongside the headline numbers *)
  Unit_obs.Obs.set_enabled true;
  let outcomes = List.map (fun (_, f) -> f ()) chosen in
  Unit_obs.Obs.set_enabled false;
  Experiments.summary outcomes;
  if args = [] then Experiments.write_obs_json outcomes
