(** Minimal JSON: value type, escaped printer, strict parser.
    Exists so the observability sinks and [unitc trace-lint] need no
    external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** The output is always valid UTF-8 JSON even for arbitrary byte
    content in [Str]: control characters are [\u]-escaped, well-formed
    UTF-8 sequences pass through, and any invalid byte (stray
    continuation, overlong or surrogate encoding, > U+10FFFF) is
    replaced with U+FFFD. *)

val parse : string -> (t, string) result
(** Strict: rejects trailing garbage; [\u] escapes are decoded to
    UTF-8 (surrogate pairs unsupported — the emitter never produces
    them). *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_str : t -> string option
val to_num : t -> float option

val to_int : t -> int option
(** [Some n] only for numbers that are exact integers (within the f64
    53-bit window); the tuning store's reader uses it to reject
    fractional budgets as corrupt. *)

val to_bool : t -> bool option

(** {1 Field readers}

    Result-typed [member] + conversion for hand-written decoders.  A
    missing or mistyped field is [Error "field NAME missing or not a
    T"], the one message every decoder shares. *)

val str_field : string -> t -> (string, string) result
val num_field : string -> t -> (float, string) result
val int_field : string -> t -> (int, string) result
val list_field : string -> t -> (t list, string) result
val bool_field : string -> t -> (bool, string) result
