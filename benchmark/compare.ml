(* compare A.jsonl B.jsonl: two sets of runs (each line one run, as
   --out appends them), A the parent and B the change.  Run i of A is
   paired with run i of B of the same workload and mode, so alternate
   which side runs first when collecting them.  Per workload and metric
   it prints both medians and quartiles, the share of pairs B wins, and
   a verdict against the metric's bound in BENCHMARK.json:
   - improved:   B wins at least 9/10 of >= 10 pairs and the medians
                 differ by more than A's own spread (q3 - q1);
   - regressed:  B's median is worse than A's by more than the bound;
   - unresolved: A's spread exceeds the bound, so "unchanged" cannot be
                 told apart from noise (unless every B run beats every A);
   - unchanged:  otherwise.
   Per-layer metrics have no bound; they get improved, worse or "-" by
   the same pair rule. *)

module Json = Unit_obs.Json

type run = {
  workload : string;
  trace : bool;
  metrics : (string * float) list;
}

let read_runs path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match Json.parse line with
        | Error e -> failwith (Printf.sprintf "%s: %s" path e)
        | Ok j ->
          let str k = Option.bind (Json.member k j) Json.to_str in
          let metrics =
            match Option.bind (Json.member "result" j) (Json.member "metrics") with
            | Some (Json.Obj kvs) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_num))
                kvs
            | _ -> []
          in
          Some
            { workload = Option.value ~default:"?" (str "workload");
              trace = Json.member "trace" j = Some (Json.Bool true);
              metrics })
    (String.split_on_char '\n' (Files.read path))

(* name -> (higher is better, bound if end-to-end) *)
let read_spec path =
  match Json.parse (Files.read path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
    let entries key =
      Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list)
    in
    List.filter_map
      (fun m ->
        match Option.bind (Json.member "name" m) Json.to_str with
        | None -> None
        | Some name ->
          Some
            ( name,
              ( Option.bind (Json.member "better" m) Json.to_str = Some "higher",
                Option.bind (Json.member "bound" m) Json.to_num ) ))
      (entries "end_to_end" @ entries "per_layer")

let verdict ~higher ~bound a b =
  let better x y = if higher then x > y else x < y in
  let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> [] in
  let pairs = zip a b in
  let n = List.length pairs in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let losses = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  let q1, ma, q3 = Stats.quartiles a and mb = Stats.median b in
  let spread = Stats.ratio (q3 -. q1) (Float.abs ma) in
  let worse = Stats.ratio (if higher then ma -. mb else mb -. ma) (Float.abs ma) in
  let decisive k = n >= 10 && float_of_int k >= 0.9 *. float_of_int n in
  let beyond_spread = Float.abs (mb -. ma) > q3 -. q1 in
  let all_b_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let all_b_worse = List.for_all (fun y -> List.for_all (fun x -> better x y) a) b in
  let v =
    if decisive wins && beyond_spread && better mb ma then "improved"
    else
      match bound with
      | None -> if decisive losses && beyond_spread then "worse" else "-"
      | Some bound ->
        if worse > bound && (spread <= bound || all_b_worse) then "regressed"
        else if spread > bound && not all_b_better then "unresolved"
        else "unchanged"
  in
  (wins, n, v)

let run ~spec a_path b_path =
  let spec = read_spec spec in
  let a = read_runs a_path and b = read_runs b_path in
  let values runs w trace name =
    List.filter_map
      (fun r -> if r.workload = w && r.trace = trace then List.assoc_opt name r.metrics else None)
      runs
  in
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fun (name, _) -> (r.workload, r.trace, name)) r.metrics) a)
  in
  Printf.printf "%-8s %-34s %-36s %-36s %7s %s\n" "workload" "metric" "A median [q1, q3] n"
    "B median [q1, q3] n" "B wins" "verdict";
  let show xs =
    let q1, _, q3 = Stats.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g] %d" (Stats.median xs) q1 q3 (List.length xs)
  in
  List.iter
    (fun (w, trace, name) ->
      let av = values a w trace name and bv = values b w trace name in
      if av <> [] && bv <> [] then begin
        let higher, bound =
          Option.value ~default:(false, None) (List.assoc_opt name spec)
        in
        let wins, n, v = verdict ~higher ~bound av bv in
        Printf.printf "%-8s %-34s %-36s %-36s %3d/%-3d %s\n" w name (show av) (show bv) wins n v
      end)
    keys
