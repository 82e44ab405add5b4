(* Request/response codecs for the unitd wire protocol.  See
   protocol.mli. *)

module Json = Unit_obs.Json
module Workload = Unit_graph.Workload
module Pipeline = Unit_core.Pipeline

type workload =
  | Conv of Workload.conv2d
  | Dense of Workload.dense
  | Table1 of int

type request =
  | Ping
  | Stats
  | Shutdown
  | Load_isa of { path : string }
  | Trace of { id : string }
  | Metrics
  | Flight of { last : int option; errors_only : bool; slower_than_us : float option }
  | Tune of { target : Pipeline.target; engine : Pipeline.engine; workload : workload }
  | Run of { target : Pipeline.target; engine : Pipeline.engine; workload : workload }
  | Explain of { target : Pipeline.target; workload : workload }

type error_code =
  | Bad_request
  | Overloaded
  | Draining
  | Not_applicable
  | Internal

type response =
  | Result of Json.t
  | Failure of error_code * string

let code_to_string = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Not_applicable -> "not_applicable"
  | Internal -> "internal"

let code_of_string = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "draining" -> Some Draining
  | "not_applicable" -> Some Not_applicable
  | "internal" -> Some Internal
  | _ -> None

let to_workload = function
  | Conv wl -> Workload.Conv wl
  | Dense wl -> Workload.Fc wl
  | Table1 i -> Workload.Conv Unit_models.Table1.workloads.(i - 1)

let workload_name = function
  | Conv wl -> Workload.name (Workload.Conv wl)
  | Dense wl -> Workload.name (Workload.Fc wl)
  | Table1 i -> Printf.sprintf "table1:%d" i

(* The request kind, as recorded in flight-recorder entries for control
   traffic (which has no coalesce key). *)
let kind_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Load_isa _ -> "load_isa"
  | Trace _ -> "trace"
  | Metrics -> "metrics"
  | Flight _ -> "flight"
  | Tune _ -> "tune"
  | Run _ -> "run"
  | Explain _ -> "explain"

(* Coalescing identity: everything that changes the answer.  The kernel
   part is [Pipeline.kernel_key], never the display name; a Table I row
   also keys by its index, which its response echoes.  Ping/Stats/
   Shutdown/Load_isa/Trace/Metrics/Flight are control traffic and never
   queued, so they have no key. *)
let coalesce_key request =
  let key kind target workload =
    let row =
      match workload with Table1 i -> Printf.sprintf "#table1:%d" i | Conv _ | Dense _ -> ""
    in
    Some (kind ^ "/" ^ Pipeline.kernel_key target (to_workload workload) ^ row)
  in
  match request with
  | Ping | Stats | Shutdown | Load_isa _ | Trace _ | Metrics | Flight _ -> None
  | Tune { target; engine; workload } ->
    key ("tune/" ^ Pipeline.engine_to_string engine) target workload
  | Run { target; engine; workload } ->
    key ("run/" ^ Pipeline.engine_to_string engine) target workload
  | Explain { target; workload } -> key "explain" target workload

(* ---------- decoding ---------- *)

let ( let* ) = Result.bind

let int_field ?default name j =
  match Json.member name j with
  | None ->
    (match default with
     | Some d -> Ok d
     | None -> Error (Printf.sprintf "workload field %S missing" name))
  | Some v ->
    (match Json.to_int v with
     | Some i -> Ok i
     | None -> Error (Printf.sprintf "workload field %S is not an integer" name))

let workload_of_json j =
  match Json.member "table1" j with
  | Some v ->
    (match Json.to_int v with
     | Some i -> Result.map (fun _ -> Table1 i) (Unit_models.Table1.row i)
     | None -> Error "workload field \"table1\" is not an integer")
  | None ->
    let op =
      match Option.bind (Json.member "op" j) Json.to_str with
      | Some op -> op
      | None -> "conv2d"
    in
    (match op with
     | "conv2d" ->
       let* c = int_field "c" j in
       let* h = int_field "h" j in
       let* w = int_field ~default:h "w" j in
       let* k = int_field "k" j in
       let* kernel = int_field ~default:3 "kernel" j in
       let* stride = int_field ~default:1 "stride" j in
       let* padding = int_field ~default:(kernel / 2) "padding" j in
       let* groups = int_field ~default:1 "groups" j in
       let* () =
         if c > 0 && h > 0 && w > 0 && k > 0 && kernel > 0 && stride > 0
            && padding >= 0 && groups > 0
         then Ok ()
         else Error "conv2d workload dimensions must be positive"
       in
       Ok (Conv { Workload.c; h; w; k; kernel; stride; padding; groups })
     | "dense" ->
       let* d_k = int_field "k" j in
       let* d_units = int_field "units" j in
       let* () =
         if d_k > 0 && d_units > 0 then Ok ()
         else Error "dense workload dimensions must be positive"
       in
       Ok (Dense { Workload.d_k; d_units })
     | other -> Error (Printf.sprintf "unknown workload op %S (conv2d|dense)" other))

let target_of_json j =
  match Option.bind (Json.member "target" j) Json.to_str with
  | None -> Ok Pipeline.X86
  | Some s -> Pipeline.target_of_string s

let engine_of_json j =
  match Option.bind (Json.member "engine" j) Json.to_str with
  | None -> Ok Pipeline.Compiled
  | Some s ->
    (match Pipeline.engine_of_string s with
     | Ok e -> Ok e
     | Error d -> Error (Unit_tir.Diag.to_string d))

(* Client-supplied trace id: optional, and validated tightly since it is
   echoed into responses, span tags and flight-recorder entries. *)
let trace_id_of_json j =
  match Json.member "trace_id" j with
  | None -> Ok None
  | Some (Json.Str id) ->
    if id = "" then Error "field \"trace_id\" must not be empty"
    else if String.length id > 128 then
      Error "field \"trace_id\" too long (max 128 bytes)"
    else if
      not
        (String.for_all
           (fun c ->
             match c with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' ->
               true
             | _ -> false)
           id)
    then Error "field \"trace_id\" has characters outside [a-zA-Z0-9._:-]"
    else Ok (Some id)
  | Some _ -> Error "field \"trace_id\" is not a string"

let request_of_json j =
  match Option.bind (Json.member "req" j) Json.to_str with
  | None -> Error "field \"req\" missing or not a string"
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some "metrics" -> Ok Metrics
  | Some "trace" ->
    (match Option.bind (Json.member "id" j) Json.to_str with
     | Some id -> Ok (Trace { id })
     | None -> Error "field \"id\" missing or not a string")
  | Some "flight" ->
    let opt_int name =
      match Json.member name j with
      | None -> Ok None
      | Some v ->
        (match Json.to_int v with
         | Some i when i >= 0 -> Ok (Some i)
         | _ -> Error (Printf.sprintf "field %S is not a non-negative integer" name))
    in
    let opt_num name =
      match Json.member name j with
      | None -> Ok None
      | Some v ->
        (match Json.to_num v with
         | Some x when x >= 0.0 -> Ok (Some x)
         | _ -> Error (Printf.sprintf "field %S is not a non-negative number" name))
    in
    let* last = opt_int "last" in
    let* slower_than_us = opt_num "slower_than_us" in
    let errors_only =
      match Json.member "errors_only" j with
      | Some (Json.Bool b) -> b
      | _ -> false
    in
    Ok (Flight { last; errors_only; slower_than_us })
  | Some "load_isa" ->
    (match Option.bind (Json.member "path" j) Json.to_str with
     | Some path -> Ok (Load_isa { path })
     | None -> Error "field \"path\" missing or not a string")
  | Some (("tune" | "run" | "explain") as req) ->
    let* target = target_of_json j in
    let* workload =
      match Json.member "workload" j with
      | Some wj -> workload_of_json wj
      | None -> Error "field \"workload\" missing"
    in
    (match req with
     | "tune" ->
       let* engine = engine_of_json j in
       Ok (Tune { target; engine; workload })
     | "run" ->
       let* engine = engine_of_json j in
       Ok (Run { target; engine; workload })
     | _ -> Ok (Explain { target; workload }))
  | Some other ->
    Error
      (Printf.sprintf
         "unknown request %S \
          (ping|stats|shutdown|load_isa|trace|metrics|flight|tune|run|explain)"
         other)

let parse_request payload =
  match Json.parse payload with
  | Error m -> Error ("malformed JSON: " ^ m)
  | Ok j -> request_of_json j

(* ---------- encoding ---------- *)

let workload_to_json = function
  | Table1 i -> Json.Obj [ ("table1", Json.Num (float_of_int i)) ]
  | Conv { Workload.c; h; w; k; kernel; stride; padding; groups } ->
    let num i = Json.Num (float_of_int i) in
    Json.Obj
      [ ("op", Json.Str "conv2d"); ("c", num c); ("h", num h); ("w", num w);
        ("k", num k); ("kernel", num kernel); ("stride", num stride);
        ("padding", num padding); ("groups", num groups)
      ]
  | Dense { Workload.d_k; d_units } ->
    Json.Obj
      [ ("op", Json.Str "dense");
        ("k", Json.Num (float_of_int d_k));
        ("units", Json.Num (float_of_int d_units))
      ]

let request_to_json req =
  let common ~req ~target workload rest =
    Json.Obj
      ([ ("req", Json.Str req);
         ("target", Json.Str (Pipeline.target_to_string target));
         ("workload", workload_to_json workload)
       ]
      @ rest)
  in
  match req with
  | Ping -> Json.Obj [ ("req", Json.Str "ping") ]
  | Stats -> Json.Obj [ ("req", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("req", Json.Str "shutdown") ]
  | Load_isa { path } ->
    Json.Obj [ ("req", Json.Str "load_isa"); ("path", Json.Str path) ]
  | Metrics -> Json.Obj [ ("req", Json.Str "metrics") ]
  | Trace { id } -> Json.Obj [ ("req", Json.Str "trace"); ("id", Json.Str id) ]
  | Flight { last; errors_only; slower_than_us } ->
    Json.Obj
      ([ ("req", Json.Str "flight") ]
      @ (match last with
         | None -> []
         | Some n -> [ ("last", Json.Num (float_of_int n)) ])
      @ (if errors_only then [ ("errors_only", Json.Bool true) ] else [])
      @
      match slower_than_us with
      | None -> []
      | Some x -> [ ("slower_than_us", Json.Num x) ])
  | Tune { target; engine; workload } ->
    common ~req:"tune" ~target workload
      [ ("engine", Json.Str (Pipeline.engine_to_string engine)) ]
  | Run { target; engine; workload } ->
    common ~req:"run" ~target workload
      [ ("engine", Json.Str (Pipeline.engine_to_string engine)) ]
  | Explain { target; workload } -> common ~req:"explain" ~target workload []

let response_to_json ?trace_id resp =
  let tid =
    match trace_id with
    | None -> []
    | Some id -> [ ("trace_id", Json.Str id) ]
  in
  match resp with
  | Result r -> Json.Obj ([ ("status", Json.Str "ok"); ("result", r) ] @ tid)
  | Failure (code, message) ->
    Json.Obj
      ([ ("status", Json.Str "error");
         ("code", Json.Str (code_to_string code));
         ("message", Json.Str message)
       ]
      @ tid)

let response_of_json j =
  match Option.bind (Json.member "status" j) Json.to_str with
  | Some "ok" ->
    (match Json.member "result" j with
     | Some r -> Ok (Result r)
     | None -> Error "ok response without a \"result\"")
  | Some "error" ->
    let* code =
      match Option.bind (Json.member "code" j) Json.to_str with
      | Some s ->
        (match code_of_string s with
         | Some c -> Ok c
         | None -> Error (Printf.sprintf "unknown error code %S" s))
      | None -> Error "error response without a \"code\""
    in
    let message =
      Option.value ~default:""
        (Option.bind (Json.member "message" j) Json.to_str)
    in
    Ok (Failure (code, message))
  | Some other -> Error (Printf.sprintf "unknown status %S" other)
  | None -> Error "field \"status\" missing"

(* ---------- one-shot client ---------- *)

let call socket_path req =
  let* payload = Wire.call socket_path (Json.to_string (request_to_json req)) in
  let* j =
    Result.map_error (fun m -> "response is not JSON: " ^ m) (Json.parse payload)
  in
  match response_of_json j with
  | Error m -> Error ("malformed response: " ^ m)
  | Ok (Failure (code, m)) -> Error (Printf.sprintf "%s: %s" (code_to_string code) m)
  | Ok (Result r) -> Ok r

(* ---------- result digests ---------- *)

(* Canonical content digest of an execution result; the element-exact
   hash lives with the array type itself. *)
let digest_ndarray nd = Unit_codegen.Ndarray.digest nd
