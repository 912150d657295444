(* Hand-rolled lexer for the Prolog subset.

   The token stream distinguishes a '(' that immediately follows an atom
   (function application) from a standalone '(' (grouping), as ISO Prolog
   requires.  An end-of-clause dot is a '.' followed by layout or EOF;
   otherwise '.' is an ordinary symbol character. *)

type token =
  | Atom of string
  | Var of string
  | Int of int
  | Str of string            (* "..." double-quoted: list of codes at parse *)
  | Punct of string          (* ( ) [ ] { } , | and the functor-( "((" *)
  | Dot
  | Eof

type position = { line : int; col : int }

type lexeme = { token : token; pos : position }

exception Error of string * position

let error pos fmt = Format.kasprintf (fun s -> raise (Error (s, pos))) fmt

type state = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let make src = { src; off = 0; line = 1; bol = 0 }

let position st = { line = st.line; col = st.off - st.bol + 1 }

(* Characters are read in place, with no option per character: [peek]
   returns [eof] past the end, and where a NUL byte in the text could be
   meant, [at_end] tells them apart.  A token allocates its lexeme and
   position, plus its text for names, numbers and quoted tokens;
   punctuation tokens are constants. *)
let eof = '\000'

let at_end st = st.off >= String.length st.src

let peek st =
  if st.off < String.length st.src then String.unsafe_get st.src st.off else eof

let peek2 st =
  if st.off + 1 < String.length st.src then String.unsafe_get st.src (st.off + 1)
  else eof

let advance st =
  if peek st = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.off + 1
  end;
  st.off <- st.off + 1

let is_layout = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false
let is_alnum = function 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true | _ -> false

let is_symbol_char = function
  | '+' | '-' | '*' | '/' | '\\' | '^' | '<' | '>' | '=' | '~' | ':' | '.' | '?'
  | '@' | '#' | '&' | '$' ->
    true
  | _ -> false

(* A character that ends a name, so that a '(' right after it applies a
   functor. *)
let is_name_end c = is_alnum c || c = '\'' || is_symbol_char c || c = '!'

let rec skip_layout st =
  match peek st with
  | c when is_layout c ->
    advance st;
    skip_layout st
  | '%' ->
    while not (at_end st || peek st = '\n') do
      advance st
    done;
    skip_layout st
  | '/' when peek2 st = '*' ->
    let start = position st in
    advance st;
    advance st;
    while not (peek st = '*' && peek2 st = '/') do
      if at_end st then error start "unterminated block comment";
      advance st
    done;
    advance st;
    advance st;
    skip_layout st
  | _ -> ()

(* The run of characters [pred] accepts; [pred] accepts no newline (and
   not [eof]), so the line count does not move. *)
let take_while st pred =
  let start = st.off in
  while pred (peek st) do
    st.off <- st.off + 1
  done;
  String.sub st.src start (st.off - start)

let escape_char st pos =
  if at_end st then error pos "unterminated escape";
  let c = peek st in
  advance st;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | 'a' -> '\007'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'v' -> '\011'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | '`' -> '`'
  | c -> error pos "unknown escape \\%c" c

let quoted st ~quote pos =
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then error pos "unterminated quoted token";
    match peek st with
    | c when c = quote ->
      advance st;
      (* doubled quote is an escaped quote *)
      if peek st = quote then begin
        advance st;
        Buffer.add_char buf quote;
        go ()
      end
      else Buffer.contents buf
    | '\\' ->
      advance st;
      (* \<newline> is a line continuation *)
      if peek st = '\n' then begin
        advance st;
        go ()
      end
      else begin
        Buffer.add_char buf (escape_char st pos);
        go ()
      end
    | c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let next st =
  (* a '(' applies a functor when the character before it ends a name,
     looked at before and after layout is skipped: a skipped space or
     newline breaks the adjacency, a block comment's closing '/' (a
     symbol character) does not *)
  let followed_name = st.off > 0 && is_name_end st.src.[st.off - 1] in
  skip_layout st;
  let gapless = followed_name && is_name_end st.src.[st.off - 1] in
  let pos = position st in
  if at_end st then { token = Eof; pos }
  else
    match peek st with
    | '0' .. '9' ->
      let digits = take_while st is_digit in
      (* 0'c character code *)
      if String.equal digits "0" && peek st = '\'' then begin
        advance st;
        if at_end st then error pos "unterminated character code";
        match peek st with
        | '\\' ->
          advance st;
          { token = Int (Char.code (escape_char st pos)); pos }
        | c ->
          advance st;
          { token = Int (Char.code c); pos }
      end
      else { token = Int (int_of_string digits); pos }
    | 'a' .. 'z' -> { token = Atom (take_while st is_alnum); pos }
    | 'A' .. 'Z' | '_' -> { token = Var (take_while st is_alnum); pos }
    | '\'' ->
      advance st;
      { token = Atom (quoted st ~quote:'\'' pos); pos }
    | '"' ->
      advance st;
      { token = Str (quoted st ~quote:'"' pos); pos }
    | '(' ->
      advance st;
      { token = Punct (if gapless then "((" else "("); pos }
    | ')' -> advance st; { token = Punct ")"; pos }
    | '[' -> advance st; { token = Punct "["; pos }
    | ']' -> advance st; { token = Punct "]"; pos }
    | '{' -> advance st; { token = Punct "{"; pos }
    | '}' -> advance st; { token = Punct "}"; pos }
    | ',' -> advance st; { token = Punct ","; pos }
    | '|' -> advance st; { token = Punct "|"; pos }
    | '!' ->
      advance st;
      { token = Atom "!"; pos }
    | ';' ->
      advance st;
      { token = Atom ";"; pos }
    | c when is_symbol_char c ->
      let sym = take_while st is_symbol_char in
      (* A lone '.' followed by layout/EOF was consumed by take_while; split
         the end-of-clause dot back out. *)
      if String.equal sym "." then { token = Dot; pos }
      else { token = Atom sym; pos }
    | c -> error pos "unexpected character %C" c

let tokenize src =
  let st = make src in
  let rec go acc =
    let lx = next st in
    match lx.token with Eof -> List.rev (lx :: acc) | _ -> go (lx :: acc)
  in
  go []
