(* Helpers shared by the unitc and unitd executables. *)

module Obs = Unit_obs.Obs
module Sharded = Unit_store.Sharded
module Store = Unit_store.Store

(* Cleared by [usage_error]: a run stopped by an argument it could not
   use did no work worth a summary. *)
let summary_due = ref true

(* Tracing is flushed through [at_exit] so the summary and the Chrome
   trace are emitted even on the error-exit paths (check --trace with
   analysis errors exits 1 but still reports where the time went). *)
let enable_tracing ?trace_out () =
  Obs.set_enabled true;
  at_exit (fun () ->
      Obs.set_enabled false;
      if !summary_due then begin
        Format.printf "%a@?" Obs.pp_summary ();
        Option.iter
          (fun path ->
            Obs.write_chrome_trace path;
            Printf.printf "chrome trace written to %s\n%!" path)
          trace_out
      end)

(* An argument the command cannot use (a name, a pack, a store path):
   [msg] on stderr and exit 1, with no tracing summary after it. *)
let usage_error msg =
  summary_due := false;
  prerr_endline msg;
  exit 1

(* Install a sharded store around [f] when a path was given: tuning
   records and emitted artifacts route by content address.  Appends are
   durable the moment they happen, so error-exit paths inside [f] lose
   nothing; the final stats line reports the run's disk traffic.  A store
   that cannot be opened — a missing parent directory, or a single-file
   store that needs store-migrate first — is one [prog: ...] line on
   stderr and exit 1. *)
let with_store ~prog store_dir f =
  match store_dir with
  | None -> f ()
  | Some dir ->
    (try
       Sharded.with_installed dir @@ fun store diags ->
       List.iter (fun d -> Printf.printf "%s\n%!" (Unit_tir.Diag.to_string d)) diags;
       Fun.protect
         ~finally:(fun () ->
           let st = Sharded.stats store in
           Printf.printf
             "store %s: %d shard(s), %d record(s), %d artifact(s); this run: \
              %d disk hit(s), %d miss(es), %d append(s)\n%!"
             dir (Sharded.shard_count store) st.Store.st_records
             st.Store.st_artifacts st.Store.st_hits st.Store.st_misses
             st.Store.st_appends)
         f
     with Sys_error msg -> usage_error (prog ^ ": " ^ msg))
