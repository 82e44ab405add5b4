open Unit_graph
module Obs = Unit_obs.Obs

type row = {
  pr_node : string;
  pr_kind : string;
  pr_modelled : float;
  pr_measured : float option;
  pr_macs : int option;
}

type t = {
  pr_rows : row list;
  pr_residual : float option;
  pr_wall : float option;
}

(* Each node's exec.* span seconds in one traced run, by node name (the
   span detail is the name, then " out=..."), and the run's wall time. *)
let measure g ~input =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let t0 = Obs.now () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
      ignore (Executor.run g ~input : Executor.value));
  let wall = Obs.now () -. t0 in
  let spans = Hashtbl.create 256 in
  List.iter
    (fun (s : Obs.span_record) ->
      if s.sp_begin >= t0 && String.starts_with ~prefix:"exec." s.sp_name then
        Hashtbl.replace spans (List.hd (String.split_on_char ' ' s.sp_detail))
          (s.sp_end -. s.sp_begin))
    (Obs.spans ());
  (spans, wall)

let report ?input engine g =
  let measured = Option.map (fun input -> measure g ~input) input in
  let rows =
    List.filter_map
      (fun (n : Graph.node) ->
        match n.kind with
        | Graph.Input _ | Graph.Weight _ -> None
        | kind ->
          Some
            { pr_node = n.name;
              pr_kind = String.concat "+" (List.map Graph.kind_name (kind :: n.fused));
              pr_modelled = Latency.node_seconds engine g n;
              pr_measured =
                Option.map (fun (spans, _) -> Hashtbl.find spans n.name) measured;
              pr_macs = Option.map Workload.macs (Workload.of_node g n)
            })
      (Graph.nodes g)
  in
  let in_rows =
    List.fold_left (fun t r -> t +. Option.value r.pr_measured ~default:0.0) 0.0 rows
  in
  { pr_rows = rows;
    pr_residual = Option.map (fun (_, wall) -> wall -. in_rows) measured;
    pr_wall = Option.map snd measured
  }
