(* Operator-aware printing of terms, straight into a [Buffer].

   The printer carries its own table of the standard operators (mirroring
   the parser's table in [ace_lang]); printing an operator term emits infix
   syntax with parentheses driven by priorities, so that printed terms
   re-parse to the same term.

   Output is always one line: no layout engine sits between the term and
   the buffer, so printing costs one pass over the term and the bytes it
   emits (answers on the server's request path are printed here).

   This is the one layer where symbols resolve back to strings: the tables
   are keyed on symbol ids, and [Symbol.name] is called only on the atoms
   actually printed. *)

type assoc = Xfx | Xfy | Yfx

let infix_ops : (int, int * assoc) Hashtbl.t =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (name, prio, assoc) ->
      Hashtbl.replace t (Symbol.id (Symbol.intern name)) (prio, assoc))
    [ (":-", 1200, Xfx);
      ("-->", 1200, Xfx);
      (";", 1100, Xfy);
      ("->", 1050, Xfy);
      (",", 1000, Xfy);
      ("&", 950, Xfy);
      ("=", 700, Xfx);
      ("\\=", 700, Xfx);
      ("==", 700, Xfx);
      ("\\==", 700, Xfx);
      ("is", 700, Xfx);
      ("<", 700, Xfx);
      (">", 700, Xfx);
      ("=<", 700, Xfx);
      (">=", 700, Xfx);
      ("=:=", 700, Xfx);
      ("=\\=", 700, Xfx);
      ("@<", 700, Xfx);
      ("@>", 700, Xfx);
      ("@=<", 700, Xfx);
      ("@>=", 700, Xfx);
      ("+", 500, Yfx);
      ("-", 500, Yfx);
      ("*", 400, Yfx);
      ("/", 400, Yfx);
      ("//", 400, Yfx);
      ("mod", 400, Yfx);
      ("rem", 400, Yfx);
      ("div", 400, Yfx);
      (">>", 400, Yfx);
      ("<<", 400, Yfx);
      ("^", 200, Xfy) ];
  t

let prefix_ops : (int, int) Hashtbl.t =
  let t = Hashtbl.create 4 in
  List.iter
    (fun (name, prio) -> Hashtbl.replace t (Symbol.id (Symbol.intern name)) prio)
    [ ("-", 200); ("\\+", 900); ("?-", 1200); (":-", 1200) ];
  t

let is_letter_atom name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let is_symbolic_atom name =
  String.length name > 0
  && String.for_all
       (fun c -> String.contains "+-*/\\^<>=~:.?@#&$" c)
       name

let atom_needs_quotes name =
  (* "." alone would lex as the end-of-clause dot *)
  String.equal name "."
  || (not (is_letter_atom name || is_symbolic_atom name)
      && not (List.mem name [ "[]"; "!"; ";"; "{}" ]))

let add_atom buf name =
  if atom_needs_quotes name then begin
    Buffer.add_char buf '\'';
    String.iter
      (function
        | '\'' -> Buffer.add_string buf "\\'"
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      name;
    Buffer.add_char buf '\''
  end
  else Buffer.add_string buf name

let add_int buf n = Buffer.add_string buf (string_of_int n)

(* Variable names: [None] prints [_G<id>]; [Some tbl] numbers variables
   by first occurrence in print order (the canonical form), [tbl] mapping
   variable id to number.  Print order is a left-to-right preorder walk,
   the same order as {!Term.variables}. *)
let add_var buf names (v : Term.var) =
  match names with
  | None ->
    Buffer.add_string buf "_G";
    add_int buf v.Term.vid
  | Some tbl ->
    let n =
      match Hashtbl.find_opt tbl v.Term.vid with
      | Some n -> n
      | None ->
        let n = Hashtbl.length tbl in
        Hashtbl.add tbl v.Term.vid n;
        n
    in
    Buffer.add_string buf "'_V";
    add_int buf n;
    Buffer.add_char buf '\''

(* [max_prio] is the highest operator priority printable without
   parentheses in the current context. *)
let rec add_prio buf names max_prio t =
  match Term.deref t with
  | Term.Var v -> add_var buf names v
  | Term.Int n ->
    if n < 0 && max_prio < 200 then begin
      Buffer.add_char buf '(';
      add_int buf n;
      Buffer.add_char buf ')'
    end
    else add_int buf n
  | Term.Atom s -> add_atom buf (Symbol.name s)
  | Term.Struct (s, [| h; tl |]) when Symbol.equal s Symbol.dot ->
    Buffer.add_char buf '[';
    add_prio buf names 999 h;
    add_tail buf names tl;
    Buffer.add_char buf ']'
  | Term.Struct (s, [| x; y |]) when Hashtbl.mem infix_ops (Symbol.id s) ->
    let prio, assoc = Hashtbl.find infix_ops (Symbol.id s) in
    let lp, rp =
      match assoc with
      | Xfx -> (prio - 1, prio - 1)
      | Xfy -> (prio - 1, prio)
      | Yfx -> (prio, prio - 1)
    in
    if prio > max_prio then Buffer.add_char buf '(';
    add_prio buf names lp x;
    if Symbol.equal s Symbol.comma then Buffer.add_string buf ", "
    else begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Symbol.name s);
      Buffer.add_char buf ' '
    end;
    add_prio buf names rp y;
    if prio > max_prio then Buffer.add_char buf ')'
  | Term.Struct (s, [| x |]) when Hashtbl.mem prefix_ops (Symbol.id s) ->
    let prio = Hashtbl.find prefix_ops (Symbol.id s) in
    if prio > max_prio then Buffer.add_char buf '(';
    Buffer.add_string buf (Symbol.name s);
    Buffer.add_char buf ' ';
    add_prio buf names prio x;
    if prio > max_prio then Buffer.add_char buf ')'
  | Term.Struct (s, args) ->
    add_atom buf (Symbol.name s);
    Buffer.add_char buf '(';
    for i = 0 to Array.length args - 1 do
      if i > 0 then Buffer.add_char buf ',';
      add_prio buf names 999 args.(i)
    done;
    Buffer.add_char buf ')'

(* The elements after a list's head; iterative along the spine, so a
   long list costs no stack. *)
and add_tail buf names t =
  match Term.deref t with
  | Term.Atom s when Symbol.equal s Symbol.nil -> ()
  | Term.Struct (s, [| h; tl |]) when Symbol.equal s Symbol.dot ->
    Buffer.add_char buf ',';
    add_prio buf names 999 h;
    add_tail buf names tl
  | rest ->
    Buffer.add_char buf '|';
    add_prio buf names 999 rest

let to_string t =
  let buf = Buffer.create 64 in
  add_prio buf None 1200 t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Alpha-invariant rendering: unbound variables are numbered by first
   occurrence, so two alpha-equivalent terms print identically regardless
   of their variable ids.  Engines produce solution copies with fresh
   (engine-dependent) variables; this is the form to compare across
   engines.  Variable [i] prints as the quoted atom ['_V<i>']. *)
let to_canonical_string t =
  let buf = Buffer.create 64 in
  add_prio buf (Some (Hashtbl.create 8)) 1200 t;
  Buffer.contents buf
