(* Length-prefixed framing: 4-byte big-endian length + payload.
   See wire.mli. *)

let max_frame = 4 * 1024 * 1024

type error =
  | Closed
  | Truncated of string
  | Oversized of int

let error_to_string = function
  | Closed -> "connection closed"
  | Truncated what -> "truncated frame (" ^ what ^ ")"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes, max %d)" n max_frame

(* Read exactly [len] bytes, riding out EINTR and short reads; [Error n]
   reports how many bytes arrived before EOF.  Bounded work per call —
   this can block on a slow peer but never spins or over-reads. *)
let really_read fd buf off len =
  let rec go off remaining =
    if remaining = 0 then Ok ()
    else
      match Unix.read fd buf off remaining with
      | 0 -> Error (len - remaining)
      | n -> go (off + n) (remaining - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
  in
  go off len

let really_write fd buf off len =
  let rec go off remaining =
    if remaining > 0 then
      match Unix.write fd buf off remaining with
      | n -> go (off + n) (remaining - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
  in
  go off len

let encode payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let read_frame fd =
  let header = Bytes.create 4 in
  match really_read fd header 0 4 with
  | Error 0 -> Error Closed
  | Error n -> Error (Truncated (Printf.sprintf "%d of 4 header bytes" n))
  | Ok () ->
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 0 || len > max_frame then Error (Oversized len)
    else begin
      let payload = Bytes.create len in
      match really_read fd payload 0 len with
      | Error n ->
        Error (Truncated (Printf.sprintf "%d of %d payload bytes" n len))
      | Ok () -> Ok (Bytes.unsafe_to_string payload)
    end

let write_frame fd payload =
  let framed = encode payload in
  really_write fd (Bytes.unsafe_of_string framed) 0 (String.length framed)

let call socket_path payload =
  (* a daemon hanging up mid-write must surface as EPIPE, not kill the
     client with the signal *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot connect to %s: %s" socket_path (Unix.error_message e))
  | () ->
    (match
       write_frame fd payload;
       read_frame fd
     with
     | Ok response -> Ok response
     | Error e -> Error (error_to_string e)
     | exception Unix.Unix_error (e, _, _) ->
       Error
         (Printf.sprintf "connection to %s lost: %s" socket_path
            (Unix.error_message e)))
