(* A minimal JSON value with a printer and a strict recursive-descent
   parser.  The observability sinks emit through [to_string]; [parse]
   exists so `unitc trace-lint` (and the @obs-smoke alias) can verify that
   an emitted trace file is genuine JSON without any external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

(* OCaml strings are byte strings, so [Str] may carry arbitrary bytes
   (file paths, user-provided op names).  The emitted document must still
   be valid UTF-8 JSON, so bytes >= 0x80 are only passed through as part
   of a well-formed UTF-8 sequence (with the RFC 3629 overlong/surrogate/
   range exclusions); anything else becomes U+FFFD. *)
let replacement = "\xef\xbf\xbd"

let escape_string b s =
  let n = String.length s in
  let byte i = Char.code s.[i] in
  let cont i = i < n && byte i land 0xc0 = 0x80 in
  Buffer.add_char b '"';
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    (match c with
     | '"' ->
       Buffer.add_string b "\\\"";
       incr i
     | '\\' ->
       Buffer.add_string b "\\\\";
       incr i
     | '\n' ->
       Buffer.add_string b "\\n";
       incr i
     | '\r' ->
       Buffer.add_string b "\\r";
       incr i
     | '\t' ->
       Buffer.add_string b "\\t";
       incr i
     | c when Char.code c < 0x20 ->
       Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c));
       incr i
     | c when Char.code c < 0x80 ->
       Buffer.add_char b c;
       incr i
     | _ ->
       let c0 = byte !i in
       let len =
         if c0 >= 0xc2 && c0 <= 0xdf && cont (!i + 1) then 2
         else if
           c0 >= 0xe0 && c0 <= 0xef
           && cont (!i + 1)
           && cont (!i + 2)
           (* E0: exclude overlong; ED: exclude surrogates *)
           && (c0 <> 0xe0 || byte (!i + 1) >= 0xa0)
           && (c0 <> 0xed || byte (!i + 1) < 0xa0)
         then 3
         else if
           c0 >= 0xf0 && c0 <= 0xf4
           && cont (!i + 1)
           && cont (!i + 2)
           && cont (!i + 3)
           (* F0: exclude overlong; F4: stay below U+110000 *)
           && (c0 <> 0xf0 || byte (!i + 1) >= 0x90)
           && (c0 <> 0xf4 || byte (!i + 1) < 0x90)
         then 4
         else 0
       in
       if len = 0 then begin
         Buffer.add_string b replacement;
         incr i
       end
       else begin
         Buffer.add_substring b s !i len;
         i := !i + len
       end)
  done;
  Buffer.add_char b '"'

let add_num b x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else if Float.is_nan x || Float.abs x = Float.infinity then
    (* JSON has no NaN/inf; clamp to null like most emitters *)
    Buffer.add_string b "null"
  else Buffer.add_string b (Printf.sprintf "%.17g" x)

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num x -> add_num b x
  | Str s -> escape_string b s
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        add b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  add b j;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Parse_error of string

type state = {
  src : string;
  mutable pos : int;
}

let fail st fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" st.pos m))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail st "expected %c, found %c" c d
  | None -> fail st "expected %c, found end of input" c

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st "invalid literal"

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let code = ref 0 in
  for _ = 1 to 4 do
    let c = st.src.[st.pos] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "invalid \\u escape"
    in
    code := (!code * 16) + d;
    st.pos <- st.pos + 1
  done;
  !code

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
       | Some '"' -> Buffer.add_char b '"'; st.pos <- st.pos + 1
       | Some '\\' -> Buffer.add_char b '\\'; st.pos <- st.pos + 1
       | Some '/' -> Buffer.add_char b '/'; st.pos <- st.pos + 1
       | Some 'n' -> Buffer.add_char b '\n'; st.pos <- st.pos + 1
       | Some 'r' -> Buffer.add_char b '\r'; st.pos <- st.pos + 1
       | Some 't' -> Buffer.add_char b '\t'; st.pos <- st.pos + 1
       | Some 'b' -> Buffer.add_char b '\b'; st.pos <- st.pos + 1
       | Some 'f' -> Buffer.add_char b '\012'; st.pos <- st.pos + 1
       | Some 'u' ->
         st.pos <- st.pos + 1;
         add_utf8 b (parse_hex4 st)
       | _ -> fail st "invalid escape");
      go ()
    | Some c ->
      Buffer.add_char b c;
      st.pos <- st.pos + 1;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some x -> Num x
  | None -> fail st "invalid number %s" s

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> fail st "expected , or } in object"
      in
      Obj (members [])
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          List.rev (v :: acc)
        | _ -> fail st "expected , or ] in array"
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error (Printf.sprintf "trailing garbage at %d" st.pos)
    else Ok v
  | exception Parse_error m -> Error m

(* ---------- accessors ---------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_num = function Num x -> Some x | _ -> None

let to_int = function
  | Num x when Float.is_integer x && Float.abs x <= 2. ** 52. -> Some (int_of_float x)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let field conv kind name j =
  match Option.bind (member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "field %s missing or not %s" name kind)

let str_field = field to_str "a string"
let num_field = field to_num "a number"
let int_field = field to_int "an integer"
let list_field = field to_list "an array"
let bool_field = field to_bool "a bool"
