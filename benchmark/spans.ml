(* Per-layer self times from recorded spans: a span's duration minus the
   part its child spans (same domain, nested) cover.  Spans a worker
   domain records have no parent in the calling domain, so they count as
   roots there; [within] attributes them to a caller by time instead. *)

module Obs = Unit_obs.Obs

type agg = {
  name : string;
  count : int;
  total : float;  (** seconds *)
  self : float;  (** seconds *)
}

let duration (s : Obs.span_record) = s.Obs.sp_end -. s.Obs.sp_begin

(* Every closed span with its self time, computed over [all] so a child
   recorded outside a filtered window still discounts its parent. *)
let with_self (all : Obs.span_record list) =
  let closed = List.filter Obs.span_closed all in
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.span_record) ->
      if s.Obs.sp_parent >= 0 then begin
        let k = (s.Obs.sp_domain, s.Obs.sp_parent) in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt covered k) in
        Hashtbl.replace covered k (prev +. duration s)
      end)
    closed;
  List.map
    (fun (s : Obs.span_record) ->
      let c =
        Option.value ~default:0.0 (Hashtbl.find_opt covered (s.Obs.sp_domain, s.Obs.sp_id))
      in
      (s, Float.max 0.0 (duration s -. c)))
    closed

let aggregate spans_self =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ((s : Obs.span_record), self) ->
      let name = s.Obs.sp_name in
      let a =
        Option.value ~default:{ name; count = 0; total = 0.0; self = 0.0 }
          (Hashtbl.find_opt tbl name)
      in
      Hashtbl.replace tbl name
        { a with count = a.count + 1; total = a.total +. duration s; self = a.self +. self })
    spans_self;
  List.sort (fun a b -> String.compare a.name b.name) (Hashtbl.fold (fun _ a acc -> a :: acc) tbl [])

let find aggs name = List.find_opt (fun a -> a.name = name) aggs

(* Mean self time per call, in [unit] seconds (1e3 for ms, 1e6 for us). *)
let self_per_call aggs name ~unit =
  match find aggs name with
  | Some a when a.count > 0 -> a.self /. float_of_int a.count *. unit
  | _ -> 0.0

(* Mean duration per call, for the benchmark's own [bench.*] spans. *)
let total_per_call aggs name ~unit =
  match find aggs name with
  | Some a when a.count > 0 -> a.total /. float_of_int a.count *. unit
  | _ -> 0.0

let count aggs name = match find aggs name with Some a -> a.count | None -> 0

(* Spans that start inside [s]'s interval, on any domain. *)
let within spans_self (s : Obs.span_record) =
  List.filter
    (fun ((x : Obs.span_record), _) ->
      x.Obs.sp_begin >= s.Obs.sp_begin && x.Obs.sp_end <= s.Obs.sp_end)
    spans_self

let pp_table oc title aggs =
  Printf.fprintf oc "%s\n%-34s %8s %12s %12s\n" title "span" "count" "total ms" "self ms";
  List.iter
    (fun a ->
      Printf.fprintf oc "%-34s %8d %12.3f %12.3f\n" a.name a.count (a.total *. 1e3)
        (a.self *. 1e3))
    aggs
