(* Minimal JSON: a value type, a printer and a recursive-descent parser.

   The container ships no JSON library, and the observability exporters
   must emit output that external tools (Perfetto, chrome://tracing, CI
   validators) can parse — so the repo carries its own small implementation
   and the tests round-trip every exporter through it.  Only what the
   exporters and validators need is supported: UTF-8 passes through
   untouched, numbers parse as floats, and `\u` escapes decode to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* The writers below go straight into the buffer: a string's clean runs
   are copied whole, and integers are written digit by digit.  Only a
   number that is not a small integer reaches [Printf], in [add_float]. *)

let hex = "0123456789abcdef"

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
    Buffer.add_string buf "\\u00";
    Buffer.add_char buf (String.unsafe_get hex (Char.code c lsr 4));
    Buffer.add_char buf (String.unsafe_get hex (Char.code c land 15))

let add_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !start then Buffer.add_substring buf s !start (i - !start);
      add_escape buf c;
      start := i + 1
    end
  done;
  if n > !start then Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

let[@inline never] add_float buf f = Buffer.add_string buf (Printf.sprintf "%.17g" f)

(* An integral number below 1e15 in magnitude prints as its digits (as
   "%.0f" would, "-0" included); any other number as "%.17g". *)
let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    Ace_term.Pp.add_int buf (Int.abs (int_of_float f))
  end
  else add_float buf f

let small = 1_000_000_000_000_000

let add_int buf n =
  if n > -small && n < small then Ace_term.Pp.add_int buf n
  else add_float buf (float_of_int n)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> add_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* The cursor reads characters in place: [peek] returns [eof] past the
   end, and where a NUL byte could be meant, [at_end] tells them apart.
   Strings without escapes, keys included, are cut from the text in one
   piece, and short integers are read without [float_of_string]. *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "at %d: %s" c.pos msg))

let eof = '\000'

let at_end c = c.pos >= String.length c.text

let peek c = if c.pos < String.length c.text then String.unsafe_get c.text c.pos else eof

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let[@inline never] fail_expected c ch =
  if at_end c then fail c (Printf.sprintf "expected %C, got end of input" ch)
  else fail c (Printf.sprintf "expected %C, got %C" ch (peek c))

let expect c ch = if (not (at_end c)) && peek c = ch then advance c else fail_expected c ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* Encodes a Unicode scalar value as UTF-8 (for \uXXXX escapes). *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

(* The four hex digits at [c.pos], consumed: exactly four, so no sign,
   no [0x] and no [_] separator. *)
let hex4 c =
  if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
  let digit = function
    | '0' .. '9' as d -> Char.code d - 48
    | 'a' .. 'f' as d -> Char.code d - 87
    | 'A' .. 'F' as d -> Char.code d - 55
    | _ -> fail c "bad \\u escape"
  in
  let v = ref 0 in
  for i = c.pos to c.pos + 3 do
    v := (!v lsl 4) lor digit (String.unsafe_get c.text i)
  done;
  c.pos <- c.pos + 4;
  !v

(* A \uXXXX escape's code point, its [\u] consumed: a high surrogate
   must be followed by an escaped low one, and the pair is one code
   point (4 bytes of UTF-8, not two 3-byte halves); a lone surrogate is
   refused. *)
let escaped_code_point c =
  let u = hex4 c in
  if u >= 0xd800 && u <= 0xdbff then begin
    let text = c.text in
    if
      c.pos + 2 <= String.length text
      && String.unsafe_get text c.pos = '\\'
      && String.unsafe_get text (c.pos + 1) = 'u'
    then begin
      c.pos <- c.pos + 2;
      let lo = hex4 c in
      if lo >= 0xdc00 && lo <= 0xdfff then
        0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00)
      else fail c "lone surrogate in \\u escape"
    end
    else fail c "lone surrogate in \\u escape"
  end
  else if u >= 0xdc00 && u <= 0xdfff then fail c "lone surrogate in \\u escape"
  else u

(* The rest of a string holding an escape, from [c.pos] (just past the
   characters already in [buf]) through the closing quote. *)
let parse_escaped c buf =
  let rec go () =
    if at_end c then fail c "unterminated string";
    match peek c with
    | '"' -> advance c
    | '\\' ->
      advance c;
      if at_end c then fail c "unterminated escape";
      (match peek c with
       | '"' -> advance c; Buffer.add_char buf '"'
       | '\\' -> advance c; Buffer.add_char buf '\\'
       | '/' -> advance c; Buffer.add_char buf '/'
       | 'n' -> advance c; Buffer.add_char buf '\n'
       | 't' -> advance c; Buffer.add_char buf '\t'
       | 'r' -> advance c; Buffer.add_char buf '\r'
       | 'b' -> advance c; Buffer.add_char buf '\b'
       | 'f' -> advance c; Buffer.add_char buf '\012'
       | 'u' ->
         advance c;
         add_utf8 buf (escaped_code_point c)
       | x -> fail c (Printf.sprintf "bad escape \\%C" x));
      go ()
    | ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_string c =
  expect c '"';
  let text = c.text in
  let start = c.pos in
  let n = String.length text in
  let i = ref start in
  while !i < n && (match String.unsafe_get text !i with '"' | '\\' -> false | _ -> true) do
    incr i
  done;
  if !i < n && String.unsafe_get text !i = '"' then begin
    c.pos <- !i + 1;
    String.sub text start (!i - start)
  end
  else begin
    let buf = Buffer.create (!i - start + 16) in
    Buffer.add_substring buf text start (!i - start);
    c.pos <- !i;
    parse_escaped c buf
  end

(* [-]digits, at most 15 of them, read as an int (exact as a float); -0
   keeps its sign.  Anything else goes to [float_of_string]. *)
let short_integer text start stop =
  let neg = stop > start && String.unsafe_get text start = '-' in
  let first = if neg then start + 1 else start in
  if stop = first || stop - first > 15 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = first to stop - 1 do
      match String.unsafe_get text i with
      | '0' .. '9' as d -> v := (!v * 10) + Char.code d - 48
      | _ -> ok := false
    done;
    if not !ok then None
    else if neg then Some (if !v = 0 then -0. else float_of_int (- !v))
    else Some (float_of_int !v)
  end

let parse_number c =
  let start = c.pos in
  while match peek c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false do
    advance c
  done;
  match short_integer c.text start c.pos with
  | Some f -> Num f
  | None -> (
    let s = String.sub c.text start (c.pos - start) in
    match float_of_string_opt s with
    | Some f -> Num f
    | None -> fail c (Printf.sprintf "bad number %S" s))

let rec parse_value c =
  skip_ws c;
  if at_end c then fail c "unexpected end of input";
  match peek c with
  | '{' -> parse_obj c
  | '[' -> parse_list c
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected %C" ch)

and parse_list c =
  expect c '[';
  skip_ws c;
  if peek c = ']' then begin
    advance c;
    List []
  end
  else begin
    let rec items acc =
      let v = parse_value c in
      skip_ws c;
      if at_end c then fail c "unterminated array";
      match peek c with
      | ',' ->
        advance c;
        items (v :: acc)
      | ']' ->
        advance c;
        List.rev (v :: acc)
      | ch -> fail c (Printf.sprintf "expected ',' or ']', got %C" ch)
    in
    List (items [])
  end

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = '}' then begin
    advance c;
    Obj []
  end
  else begin
    let rec fields acc =
      skip_ws c;
      let k = parse_string c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      skip_ws c;
      if at_end c then fail c "unterminated object";
      match peek c with
      | ',' ->
        advance c;
        fields ((k, v) :: acc)
      | '}' ->
        advance c;
        List.rev ((k, v) :: acc)
      | ch -> fail c (Printf.sprintf "expected ',' or '}', got %C" ch)
    in
    Obj (fields [])
  end

let parse text =
  let c = { text; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length text then Ok v
    else Error (Printf.sprintf "at %d: trailing input" c.pos)
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors (for tests and validators)                                *)
(* ------------------------------------------------------------------ *)

let rec assoc key = function
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest
  | [] -> None

let member key = function
  | Obj fields -> assoc key fields
  | Null | Bool _ | Num _ | Str _ | List _ -> None

let to_list = function List items -> Some items | _ -> None

let int n = Num (float_of_int n)
