open Unit_tir

(* Compile-and-load layer over {!Emit}: ocamlopt shell-out, native
   Dynlink, a per-process memo (native Dynlink cannot reload a module
   name, so the memo is correctness, not just speed), and persistent
   artifact records through hooks the store installs.

   Everything here is cold-path: the hot path is one Hashtbl probe on
   the artifact key, and the key itself is two MD5s over strings that
   are already in memory. *)

module Obs = Unit_obs.Obs

let c_artifact_hit = Obs.counter "emit.artifact.hit"
let c_artifact_miss = Obs.counter "emit.artifact.miss"
let c_memo_hit = Obs.counter "emit.memo.hit"
let c_fallback = Obs.counter "emit.fallback"
let c_artifact_rejected = Obs.counter "emit.artifact.rejected"

type artifact_hooks = {
  ah_dir : key:string -> string;
  ah_lookup : key:string -> (string * string) option;
  ah_record :
    key:string -> signature:string -> file:string -> bytes:int -> digest:string -> unit;
}

let hooks : artifact_hooks option Atomic.t = Atomic.make None
let set_artifact_hooks h = Atomic.set hooks h

(* ---- availability probing (memoized) *)

let probe_cmd cmd =
  (* sh exit 127 = not found; any non-zero means unusable *)
  Sys.command (Printf.sprintf "%s -version 1>/dev/null 2>/dev/null" cmd) = 0

let find_compiler () =
  if probe_cmd "ocamlfind ocamlopt" then Ok "ocamlfind ocamlopt"
  else if probe_cmd "ocamlopt" then Ok "ocamlopt"
  else Error "no ocamlfind ocamlopt / ocamlopt on PATH"

(* Directories holding unit_emit_hook.{cmi,cmx}: the generated module
   references it, so ocamlopt needs them on its include path.  dune puts
   the .cmi under .unit_emitrt.objs/byte and the .cmx under .../native;
   we search upward from the running executable (tests and unitc both
   live under _build/default). *)
let find_emitrt_dirs () =
  let dirs_of_objs objs =
    List.filter Sys.file_exists
      [ Filename.concat objs "byte"; Filename.concat objs "native" ]
  in
  match Sys.getenv_opt "UNIT_EMITRT_DIR" with
  | Some d when Sys.file_exists (Filename.concat d "unit_emit_hook.cmi") ->
    Ok [ d ]
  | Some d when Sys.file_exists (Filename.concat d "byte/unit_emit_hook.cmi") ->
    Ok (dirs_of_objs d)
  | Some d -> Error (Printf.sprintf "UNIT_EMITRT_DIR=%s: no unit_emit_hook.cmi" d)
  | None ->
    let rec walk dir depth =
      if depth > 8 then Error "unit_emitrt build artifacts not found"
      else begin
        let objs = Filename.concat dir "lib/emitrt/.unit_emitrt.objs" in
        if Sys.file_exists (Filename.concat objs "byte/unit_emit_hook.cmi") then
          Ok (dirs_of_objs objs)
        else begin
          let parent = Filename.dirname dir in
          if String.equal parent dir then
            Error "unit_emitrt build artifacts not found"
          else walk parent (depth + 1)
        end
      end
    in
    walk (Filename.dirname Sys.executable_name) 0

type toolchain = {
  tc_compiler : string;
  tc_incdirs : string list;
}

let toolchain : (toolchain, string) result option Atomic.t = Atomic.make None

let available_tc () =
  match Atomic.get toolchain with
  | Some r -> r
  | None ->
    let r =
      if not Dynlink.is_native then
        Error "bytecode runtime: native Dynlink unavailable"
      else
        match find_compiler () with
        | Error e -> Error e
        | Ok tc_compiler ->
          (match find_emitrt_dirs () with
           | Error e -> Error e
           | Ok tc_incdirs -> Ok { tc_compiler; tc_incdirs })
    in
    Atomic.set toolchain (Some r);
    r

let available () =
  match available_tc () with Ok _ -> Ok () | Error e -> Error e

(* ---- keying *)

let artifact_key ~signature ~source =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "unit-emit-v%d|ocaml-%s|%s|%s" Emit.version
          Sys.ocaml_version signature
          (Digest.to_hex (Digest.string source))))

let modname_of_key key = "unit_emitted_" ^ String.sub key 0 16

(* ---- compile + load (all under one lock: Dynlink and the hook slot
   are process-global) *)

let lock = Mutex.create ()
let memo : (string, Unit_emit_hook.kernel) Hashtbl.t = Hashtbl.create 16

(* Diagnostics go to stderr once per process and [key]. *)
let printed : (string, unit) Hashtbl.t = Hashtbl.create 8

let print_once ~key d =
  let fresh =
    Mutex.protect lock (fun () ->
        let fresh = not (Hashtbl.mem printed key) in
        if fresh then Hashtbl.add printed key ();
        fresh)
  in
  if fresh then prerr_endline (Diag.to_string d)

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let tmp_dir =
  lazy
    (let d =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "unit-emit-%d" (Unix.getpid ()))
     in
     mkdir_p d;
     d)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let first_line_of s =
  match String.index_opt s '\n' with
  | Some i when i > 0 -> String.sub s 0 (Stdlib.min i 200)
  | _ -> if String.length s > 200 then String.sub s 0 200 else s

let dynlink_take path =
  Obs.with_span "emit.dynlink" @@ fun () ->
  match Dynlink.loadfile_private path with
  | exception Dynlink.Error e -> Error (Dynlink.error_message e)
  | exception e -> Error (Printexc.to_string e)
  | () ->
    (match Unit_emit_hook.take () with
     | Some fn -> Ok fn
     | None -> Error (Printf.sprintf "%s registered no kernel" path))

let compile_source tc ~modname ~source =
  Obs.with_span "emit.compile" @@ fun () ->
  let dir = Lazy.force tmp_dir in
  let src = Filename.concat dir (modname ^ ".ml") in
  let out = Filename.concat dir (modname ^ ".cmxs") in
  let log = Filename.concat dir (modname ^ ".log") in
  write_file src source;
  let includes =
    String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) tc.tc_incdirs)
  in
  (* The default graph-colouring allocator: each register tile renders
     as its own small function, where colouring keeps the accumulators
     in registers at no more compile time than linear scan. *)
  let cmd =
    Printf.sprintf "%s -shared %s -o %s %s 2>%s" tc.tc_compiler includes
      (Filename.quote out) (Filename.quote src) (Filename.quote log)
  in
  let rc = Sys.command cmd in
  if rc <> 0 || not (Sys.file_exists out) then begin
    let detail =
      try first_line_of (In_channel.with_open_bin log In_channel.input_all)
      with _ -> ""
    in
    Error (Printf.sprintf "ocamlopt exit %d: %s" rc detail)
  end
  else Ok out

(* Copy the compiled .cmxs into the artifact directory; rename is not
   portable across filesystems (the temp dir is often tmpfs), so write
   to a sibling then rename within the destination. *)
let install_artifact ~dir ~file ~from =
  mkdir_p dir;
  let dst = Filename.concat dir file in
  let tmp = dst ^ ".tmp" in
  let contents = In_channel.with_open_bin from In_channel.input_all in
  write_file tmp contents;
  Sys.rename tmp dst;
  (dst, String.length contents, Digest.to_hex (Digest.string contents))

(* Load the kernel for [key], in preference order: process memo,
   persistent artifact, fresh compile.  Caller holds [lock]. *)
let load_locked tc ~signature ~key ~source =
  match Hashtbl.find_opt memo key with
  | Some fn ->
    Obs.incr c_memo_hit;
    Ok fn
  | None ->
    let modname = modname_of_key key in
    let from_store =
      match Atomic.get hooks with
      | None -> None
      | Some h ->
        (match h.ah_lookup ~key with
         | Some (path, digest) when Sys.file_exists path ->
           (* never Dynlink a payload the record does not name: a
              replaced or truncated file would run foreign code *)
           if not (String.equal (Digest.to_hex (Digest.file path)) digest) then begin
             Obs.incr c_artifact_rejected;
             prerr_endline
               (Diag.to_string
                  (Diag.warnf Diag.Emit
                     "%s: artifact %s fails its payload digest check; recompiling"
                     signature path));
             None
           end
           else begin
             Obs.incr c_artifact_hit;
             match dynlink_take path with
             | Ok fn -> Some fn
             | Error _ ->
               (* stale or corrupt on-disk artifact: recompile below *)
               None
           end
         | _ -> None)
    in
    let result =
      match from_store with
      | Some fn -> Ok fn
      | None ->
        Obs.incr c_artifact_miss;
        (match compile_source tc ~modname ~source with
         | Error e -> Error e
         | Ok built ->
           let path =
             match Atomic.get hooks with
             | None -> built
             | Some h ->
               (match
                  install_artifact ~dir:(h.ah_dir ~key) ~file:(modname ^ ".cmxs")
                    ~from:built
                with
                | dst, bytes, digest ->
                  h.ah_record ~key ~signature ~file:(modname ^ ".cmxs") ~bytes ~digest;
                  dst
                | exception _ -> built)
           in
           dynlink_take path)
    in
    (match result with Ok fn -> Hashtbl.replace memo key fn | Error _ -> ());
    result

type kernel = {
  k_plan : Emit.plan;
  k_fn : Unit_emit_hook.kernel;
}

(* Kernels loaded in this process, by signature and the physical
   identity of their function, newest first: running a loaded kernel
   again skips the render and the key hash.  At most [max_loaded]. *)
let loaded : (string * Lower.func * kernel) list ref = ref []
let max_loaded = 16

let load ~signature func =
  match
    Mutex.protect lock (fun () ->
        List.find_map
          (fun (s, f, k) -> if f == func && String.equal s signature then Some k else None)
          !loaded)
  with
  | Some k ->
    Obs.incr c_memo_hit;
    Ok k
  | None -> (
    match available_tc () with
    | Error e -> Error e
    | Ok tc -> (
      match Obs.with_span "emit.render" (fun () -> Emit.render func) with
      | exception Emit.Unsupported msg -> Error ("unsupported: " ^ msg)
      | plan, source ->
        List.iter (fun d -> print_once ~key:(Diag.to_string d) d) plan.Emit.p_diags;
        let key = artifact_key ~signature ~source in
        Mutex.protect lock (fun () ->
            match load_locked tc ~signature ~key ~source with
            | Ok fn ->
              let k = { k_plan = plan; k_fn = fn } in
              loaded := List.filteri (fun i _ -> i < max_loaded) ((signature, func, k) :: !loaded);
              Ok k
            | Error e -> Error e)))

(* ---- running a loaded kernel *)

(* Parallel fan for emitted [Parallel] loops.  Guarded by a busy flag:
   if a kernel is already fanning (or the caller sits inside the
   oracle), nested fans run serially rather than oversubscribing. *)
let par_busy = Atomic.make false

let make_par () =
  let domains = Parallel_oracle.default_domains () in
  fun extent body ->
    if extent <= 1 then begin
      for i = 0 to extent - 1 do
        body i
      done
    end
    else if domains <= 1 || not (Atomic.compare_and_set par_busy false true) then
      for i = 0 to extent - 1 do
        body i
      done
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set par_busy false)
        (fun () ->
          Parallel_oracle.iter ~domains body (List.init extent Fun.id))

(* Two bound windows [offset, offset + size) over one physical array.
   The emitted code hoists loads of buffers a loop never stores to,
   which is only sound when distinct buffers never share cells. *)
let overlapping windows =
  let same_array a b =
    match a, b with
    | Ndarray.Float_data x, Ndarray.Float_data y -> x == y
    | Ndarray.Int_data x, Ndarray.Int_data y -> x == y
    | Ndarray.Int64_data x, Ndarray.Int64_data y -> x == y
    | _ -> false
  in
  let rec go = function
    | [] -> None
    | ((b : Buffer.t), (arr : Ndarray.t)) :: rest ->
      let lo = arr.Ndarray.offset and n = b.Buffer.size in
      (match
         List.find_opt
           (fun ((b' : Buffer.t), (arr' : Ndarray.t)) ->
             let lo' = arr'.Ndarray.offset and n' = b'.Buffer.size in
             same_array arr.Ndarray.storage arr'.Ndarray.storage
             && n > 0 && n' > 0 && lo < lo' + n' && lo' < lo + n)
           rest
       with
       | Some (b', _) ->
         Some (Printf.sprintf "buffers %s and %s overlap in one array" b.Buffer.name
                 b'.Buffer.name)
       | None -> go rest)
  in
  go windows

(* [Error reason] when the kernel cannot take [bindings]: a binding
   {!Interp.resolve} rejects, two bound windows overlapping in one array,
   or a window check the kernel fails.  The run then falls back, and the
   fallback engine reports a bad binding in the same words. *)
let run_kernel { k_plan; k_fn } func ~bindings =
  Obs.with_span "emit.run" @@ fun () ->
  match
    let resolved = Interp.resolve func bindings in
    (resolved, Binding.fill k_plan.Emit.p_layout resolved)
  with
  | exception Interp.Runtime_error reason -> Error reason
  | resolved, (af, ai, al, offs) ->
    (match overlapping resolved with
     | Some reason -> Error reason
     | None ->
       (match k_fn af ai al offs (make_par ()) with
        | () -> Ok ()
        | exception Unit_emit_hook.Out_of_window (k, what) ->
          (* bound tensors are the kernel's first buffers, in plan order *)
          let name =
            match List.nth_opt k_plan.Emit.p_layout.Binding.l_slots k with
            | Some s -> s.Binding.sl_buf.Buffer.name
            | None -> Printf.sprintf "scratch buffer %d" k
          in
          Error (Printf.sprintf "%s: %s" name what)))

(* ---- fallback ladder *)

let fallback_last : Diag.t option Atomic.t = Atomic.make None
let last_fallback () = Atomic.get fallback_last

let note_fallback ~name reason =
  let d =
    Diag.warnf Diag.Emit "%s: falling back to the closure engine (%s)" name
      reason
  in
  Atomic.set fallback_last (Some d);
  print_once ~key:reason d

let default_signature (func : Lower.func) = "adhoc|" ^ func.Lower.fn_name

let prepare ~signature func =
  match load ~signature func with
  | Ok _ -> Ok ()
  | Error e ->
    Obs.incr c_fallback;
    Error e

let run ?signature func ~bindings =
  let signature =
    match signature with Some s -> s | None -> default_signature func
  in
  let fallback reason =
    Obs.incr c_fallback;
    note_fallback ~name:func.Lower.fn_name reason;
    if List.exists (fun (_, arr) -> Ndarray.is_view arr) bindings then
      (* the closure engine rejects views; the tree-walker is offset-aware *)
      Interp.run func ~bindings
    else Compile.run func ~bindings
  in
  match load ~signature func with
  | Error reason -> fallback reason
  | Ok k ->
    (match run_kernel k func ~bindings with Ok () -> () | Error reason -> fallback reason)
