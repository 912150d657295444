(* Operator-precedence parser producing {!Ace_term.Term.t}.

   The algorithm is the classical Prolog reader: parse a primary (literal,
   variable, compound, list, parenthesised term, or prefix-operator
   application), then repeatedly absorb infix operators whose priority fits
   the current maximum. *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol

let sym_minus = Symbol.intern "-"
let sym_plus = Symbol.intern "+"

exception Error of string * Lexer.position

let error pos fmt = Format.kasprintf (fun s -> raise (Error (s, pos))) fmt

type state = {
  lex : Lexer.state;
  mutable la : Lexer.lexeme; (* one-token lookahead *)
  mutable prio : int; (* the priority of the term [parse] just returned *)
  vars : (string, Term.var) Hashtbl.t;
  mutable var_names : (string * Term.var) list; (* first-occurrence order *)
}

let make src =
  let lex = Lexer.make src in
  { lex; la = Lexer.next lex; prio = 0; vars = Hashtbl.create 16; var_names = [] }

let shift st = st.la <- Lexer.next st.lex

let reset_vars st =
  Hashtbl.reset st.vars;
  st.var_names <- []

let lookup_var st name =
  if String.equal name "_" then Term.fresh_var ()
  else
    match Hashtbl.find_opt st.vars name with
    | Some v -> v
    | None ->
      let v = Term.fresh_var () in
      Hashtbl.add st.vars name v;
      st.var_names <- (name, v) :: st.var_names;
      v

(* Can the lookahead begin a term?  Used to decide whether an atom that is
   also a prefix operator is being applied or stands alone. *)
let starts_term (lx : Lexer.lexeme) =
  match lx.token with
  | Lexer.Int _ | Lexer.Var _ | Lexer.Str _ -> true
  | Lexer.Atom name ->
    (* an infix-only operator cannot start a term *)
    let s = Symbol.intern name in
    not (Ops.infix s <> None && Ops.prefix s = None)
  | Lexer.Punct ("(" | "((" | "[" | "{") -> true
  | Lexer.Punct _ | Lexer.Dot | Lexer.Eof -> false

let string_to_codes s =
  let codes = ref Term.nil in
  for i = String.length s - 1 downto 0 do
    codes := Term.cons (Term.Int (Char.code s.[i])) !codes
  done;
  !codes

(* [parse st max_prio] returns the term and leaves its priority in
   [st.prio]. *)
let rec parse st max_prio =
  let left = parse_primary st max_prio in
  parse_infix st max_prio left

and parse_infix st max_prio left =
  match st.la.Lexer.token with
  | Lexer.Atom name -> try_infix st max_prio left (Symbol.intern name)
  | Lexer.Punct "," -> try_infix st max_prio left Symbol.comma
  | Lexer.Punct "|" -> (
    (* '|' at priority 1100 is an alternative spelling of ';' in bodies *)
    match Ops.infix Symbol.semicolon with
    | Some op when op.Ops.prio <= max_prio -> apply_infix st max_prio left Symbol.semicolon op
    | Some _ | None -> left)
  | Lexer.Int _ | Lexer.Var _ | Lexer.Str _ | Lexer.Punct _ | Lexer.Dot
  | Lexer.Eof ->
    left

and try_infix st max_prio left s =
  match Ops.infix s with None -> left | Some op -> apply_infix st max_prio left s op

(* [left] (of priority [st.prio]) as the left operand of infix operator
   [s], when both fit; otherwise [left] alone. *)
and apply_infix st max_prio left s { Ops.prio; assoc } =
  let left_max = if assoc = Ops.Yfx then prio else prio - 1 in
  let right_max = if assoc = Ops.Xfy then prio else prio - 1 in
  if prio > max_prio || st.prio > left_max then left
  else begin
    shift st;
    let right = parse st right_max in
    st.prio <- prio;
    parse_infix st max_prio (Term.Struct (s, [| left; right |]))
  end

(* A primary term; its priority goes to [st.prio]. *)
and parse_primary st max_prio =
  let pos = st.la.Lexer.pos in
  st.prio <- 0;
  match st.la.Lexer.token with
  | Lexer.Int n ->
    shift st;
    Term.Int n
  | Lexer.Str s ->
    shift st;
    string_to_codes s
  | Lexer.Var name ->
    shift st;
    Term.Var (lookup_var st name)
  | Lexer.Punct ("(" | "((") ->
    shift st;
    let t = parse st 1200 in
    expect_punct st ")";
    st.prio <- 0;
    t
  | Lexer.Punct "[" ->
    shift st;
    parse_list st
  | Lexer.Punct "{" -> (
    shift st;
    match st.la.Lexer.token with
    | Lexer.Punct "}" ->
      shift st;
      Term.Atom Symbol.curly
    | _ ->
      let t = parse st 1200 in
      expect_punct st "}";
      st.prio <- 0;
      Term.Struct (Symbol.curly, [| t |]))
  | Lexer.Atom name -> (
    (* one intern per atom token: the symbol serves the operator probes and
       the term built from it *)
    let s = Symbol.intern name in
    shift st;
    match st.la.Lexer.token with
    | Lexer.Punct "((" ->
      shift st;
      let args = parse_args st in
      expect_punct st ")";
      st.prio <- 0;
      Term.struct_sym s (Array.of_list args)
    | _ -> (
      match Ops.prefix s with
      | Some _ when Symbol.equal s sym_minus && is_int st.la ->
        Term.Int (-take_int st)
      | Some _ when Symbol.equal s sym_plus && is_int st.la -> Term.Int (take_int st)
      | Some (prio, strict) when prio <= max_prio && starts_term st.la ->
        let arg_max = if strict then prio - 1 else prio in
        let arg = parse st arg_max in
        st.prio <- prio;
        Term.Struct (s, [| arg |])
      | Some _ | None ->
        (* A bare atom; operators used as operands keep their priority so
           that e.g. [X = (:-)] needs the parentheses it was given. *)
        if Ops.is_operator s then st.prio <- 1201;
        Term.Atom s))
  | Lexer.Punct p -> error pos "unexpected %s" p
  | Lexer.Dot -> error pos "unexpected end of clause"
  | Lexer.Eof -> error pos "unexpected end of input"

and is_int (lx : Lexer.lexeme) =
  match lx.Lexer.token with Lexer.Int _ -> true | _ -> false

and take_int st =
  match st.la.Lexer.token with
  | Lexer.Int n ->
    shift st;
    n
  | _ -> error st.la.Lexer.pos "expected integer"

and parse_args st =
  let arg = parse st 999 in
  match st.la.Lexer.token with
  | Lexer.Punct "," ->
    shift st;
    arg :: parse_args st
  | _ -> [ arg ]

and parse_list st =
  match st.la.Lexer.token with
  | Lexer.Punct "]" ->
    shift st;
    Term.nil
  | _ ->
    let elements = parse_args st in
    let tail =
      match st.la.Lexer.token with
      | Lexer.Punct "|" ->
        shift st;
        parse st 999
      | _ -> Term.nil
    in
    expect_punct st "]";
    st.prio <- 0;
    List.fold_right Term.cons elements tail

and expect_punct st p =
  match st.la.Lexer.token with
  | Lexer.Punct q when String.equal p q -> shift st
  | Lexer.Punct "((" when String.equal p "(" -> shift st
  | _ -> error st.la.Lexer.pos "expected %s" p

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type read_term = {
  term : Term.t;
  var_names : (string * Term.var) list; (* user variables, textual order *)
}

(* Reads the next clause/directive (a term terminated by '.'), or [None] at
   end of input.  Variable scoping is per clause. *)
let next_term st =
  reset_vars st;
  match st.la.Lexer.token with
  | Lexer.Eof -> None
  | _ ->
    let t = parse st 1200 in
    (match st.la.Lexer.token with
     | Lexer.Dot ->
       shift st;
       Some { term = t; var_names = List.rev st.var_names }
     | _ -> error st.la.Lexer.pos "expected end of clause '.'")

let term_of_string src =
  let st = make src in
  match next_term st with
  | None -> invalid_arg "Parser.term_of_string: empty input"
  | Some { term; _ } ->
    (match st.la.Lexer.token with
     | Lexer.Eof -> term
     | _ -> error st.la.Lexer.pos "trailing input after term")

let read_all src =
  let st = make src in
  let rec go acc =
    match next_term st with None -> List.rev acc | Some rt -> go (rt :: acc)
  in
  go []
