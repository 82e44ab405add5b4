(** The daemon's framing layer: 4-byte big-endian length prefix + raw
    payload (JSON by convention, but this layer does not care).

    Robustness contract — what the fuzz tests pin:
    - {!read_frame} never raises on bad {e data} and never reads past the
      frame it was asked for; every malformed input maps to a structured
      {!error} (it can still raise [Unix.Unix_error] on genuine I/O
      failures of the descriptor itself);
    - a length header beyond {!max_frame} (or negative) is rejected
      {e before} any payload allocation, so a hostile header cannot make
      the daemon allocate 2 GB;
    - EOF mid-header or mid-payload is [Truncated], EOF on a frame
      boundary is [Closed] — a well-behaved client hanging up is not an
      error. *)

val max_frame : int
(** 4 MiB — far above any real request/response, far below harm. *)

type error =
  | Closed  (** clean EOF between frames *)
  | Truncated of string  (** EOF mid-frame; says how far it got *)
  | Oversized of int  (** declared length negative or beyond {!max_frame} *)

val error_to_string : error -> string

val read_frame : Unix.file_descr -> (string, error) result
(** Blocking read of one frame (EINTR-safe, short-read-safe). *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking write of one frame.  Raises [Unix.Unix_error] (e.g. EPIPE)
    when the peer is gone — callers treat that as disconnect. *)

val encode : string -> string
(** Header + payload as one string — for tests that craft byte streams
    (valid, truncated, or corrupted) without a socket. *)

val call : string -> string -> (string, string) result
(** [call socket_path payload] — the one-shot client: connect to the
    Unix-domain socket, write one frame, read one frame, close.  The
    descriptor is always closed.  A failed connect (naming the path),
    a peer that hangs up mid-exchange (EPIPE/ECONNRESET) and a framing
    error are all [Error], never an exception.  Sets SIGPIPE to ignored
    for the process, so a vanished daemon is an error, not a fatal
    signal. *)
