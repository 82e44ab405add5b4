(* Pack loading: parse -> elaborate -> digest-checked registration.

   This is the runtime entry point behind [unitc --isa-pack], the
   [unitc isa] subcommands and the daemon's [load_isa] request.  The
   registry itself is safe against concurrent readers (it publishes
   immutable snapshots; see [Registry]), but the two-phase
   conflict-check-then-register below and the loaded-pack list must not
   interleave across concurrent loads, so every load funnels through
   [lock].  The loaded-pack list backs the daemon's [/stats] endpoint
   and [unitc isa list] provenance. *)

module Diag = Unit_tir.Diag
module Obs = Unit_obs.Obs
module Registry = Unit_isa.Registry

let c_pack_loaded = Obs.counter "pipeline.isa.pack_loaded"
let c_intrin_registered = Obs.counter "pipeline.isa.intrin_registered"

type status =
  | Added  (** fresh registration *)
  | Idempotent  (** a same-digest duplicate (builtin round-trip, re-load) *)

type pack_info = {
  pk_source : string;
  pk_instructions : (string * string * status) list;
      (** instruction name, semantic digest, registration outcome *)
  pk_warnings : Diag.t list;
}

(* Taken only through [Mutex.protect]: an unexpected raise inside the
   critical section must not leave it held, or every later pack load
   deadlocks. *)
let lock = Mutex.create ()

let loaded_packs : pack_info list ref = ref []
let loaded () = Mutex.protect lock (fun () -> List.rev !loaded_packs)
let reset_for_testing () = Mutex.protect lock (fun () -> loaded_packs := [])

(* ---------- check (parse + elaborate, no registration) ---------- *)

let check_string ~source text =
  match Parse.parse ~source text with
  | Error d -> Error [ d ]
  | Ok pack ->
    (match Elab.elaborate ~source pack with
     | Error d -> Error [ d ]
     | Ok els -> Ok els)

(* ---------- load (check + register) ---------- *)

let load_string ~source text =
  match check_string ~source text with
  | Error ds -> Error ds
  | Ok els ->
    Mutex.protect lock (fun () ->
      (* two-phase: check every instruction against the registry before
         registering any, so a pack with one conflicting instruction is
         refused atomically instead of half-loaded *)
      let conflicts =
        List.filter_map
          (fun (el : Elab.elaborated) ->
            match Registry.find el.Elab.el_intrin.Unit_isa.Intrin.name with
            | Some existing
              when not
                     (String.equal
                        (Unit_isa.Intrin.semantic_digest existing)
                        el.Elab.el_digest) ->
              (match
                 Registry.register_checked ~source el.Elab.el_intrin
               with
               | Error d -> Some d
               | Ok _ -> None (* unreachable: digest conflict refused *))
            | _ -> None)
          els
      in
      match conflicts with
      | _ :: _ -> Error conflicts
      | [] ->
        let instructions =
          List.map
            (fun (el : Elab.elaborated) ->
              let name = el.Elab.el_intrin.Unit_isa.Intrin.name in
              match Registry.register_checked ~source el.Elab.el_intrin with
              | Ok Registry.Registered ->
                Obs.incr c_intrin_registered;
                (name, el.Elab.el_digest, Added)
              | Ok Registry.Idempotent -> (name, el.Elab.el_digest, Idempotent)
              | Error d ->
                (* cannot happen: conflicts were refused above, and the
                   lock serializes loaders *)
                raise (Failure (Diag.to_string d)))
            els
        in
        let info =
          { pk_source = source;
            pk_instructions = instructions;
            pk_warnings = List.concat_map (fun e -> e.Elab.el_warnings) els
          }
        in
        loaded_packs := info :: !loaded_packs;
        Obs.incr c_pack_loaded;
        Ok info)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error m ->
    Error [ Diag.errorf Diag.Isa_pack "cannot read pack %s: %s" path m ]

let load_file path =
  match read_file path with
  | Error ds -> Error ds
  | Ok text -> load_string ~source:path text

let load_files paths =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest ->
      (match load_file path with
       | Error ds -> Error ds
       | Ok info -> go (info :: acc) rest)
  in
  go [] paths

let check_file path =
  match read_file path with
  | Error ds -> Error ds
  | Ok text -> check_string ~source:path text
