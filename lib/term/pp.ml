(* Operator-aware printing of terms, straight into a [Buffer].

   The printer carries its own table of the standard operators (mirroring
   the parser's table in [ace_lang]); printing an operator term emits infix
   syntax with parentheses driven by priorities, so that printed terms
   re-parse to the same term.

   Output is always one line: no layout engine sits between the term and
   the buffer, so printing costs one pass over the term and the bytes it
   emits (answers on the server's request path are printed here).

   Nothing about a symbol is worked out at print time: its printed text
   (quoted when needed) was computed when it was interned
   ([Symbol.text]), and its operator class is read from arrays indexed by
   symbol id.  Integers are written digit by digit, so the walk
   allocates only when the buffer grows (and, in the canonical form, to
   number the variables). *)

type assoc = Xfx | Xfy | Yfx

(* An operator as the walk uses it: its priority, the highest priority
   printable without parentheses on each side, and the text between the
   operands (or before the operand of a prefix operator). *)
type op = { prio : int; left : int; right : int; text : string }

(* The operator tables are indexed by symbol id ([Symbol.by_id]). *)
let infix_ops =
  Symbol.by_id
    (List.map
       (fun (name, prio, assoc) ->
         let left, right =
           match assoc with
           | Xfx -> (prio - 1, prio - 1)
           | Xfy -> (prio - 1, prio)
           | Yfx -> (prio, prio - 1)
         in
         let text = if String.equal name "," then ", " else " " ^ name ^ " " in
         (name, { prio; left; right; text }))
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
         ("^", 200, Xfy) ])

let prefix_ops =
  Symbol.by_id
    (List.map
       (fun (name, prio) -> (name, { prio; left = prio; right = prio; text = name ^ " " }))
       [ ("-", 200); ("\\+", 900); ("?-", 1200); (":-", 1200) ])

(* The digits of [n] as [string_of_int] writes them, with no string in
   between.  It counts on [-|n|], so [min_int] needs no special case. *)
let add_int buf n =
  let m = if n < 0 then (Buffer.add_char buf '-'; n) else -n in
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    Buffer.add_char buf (Char.unsafe_chr (48 - ((m / !p) mod 10)));
    p := !p / 10
  done

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
  | Term.Atom s -> Buffer.add_string buf (Symbol.text s)
  | Term.Struct (s, ([| x; y |] as args)) -> (
    if Symbol.equal s Symbol.dot then begin
      Buffer.add_char buf '[';
      add_prio buf names 999 x;
      add_tail buf names y;
      Buffer.add_char buf ']'
    end
    else
      match Symbol.find infix_ops s with
      | Some op ->
        if op.prio > max_prio then Buffer.add_char buf '(';
        add_prio buf names op.left x;
        Buffer.add_string buf op.text;
        add_prio buf names op.right y;
        if op.prio > max_prio then Buffer.add_char buf ')'
      | None -> add_compound buf names s args)
  | Term.Struct (s, ([| x |] as args)) -> (
    match Symbol.find prefix_ops s with
    | Some op ->
      if op.prio > max_prio then Buffer.add_char buf '(';
      Buffer.add_string buf op.text;
      add_prio buf names op.right x;
      if op.prio > max_prio then Buffer.add_char buf ')'
    | None -> add_compound buf names s args)
  | Term.Struct (s, args) -> add_compound buf names s args

and add_compound buf names s args =
  Buffer.add_string buf (Symbol.text s);
  Buffer.add_char buf '(';
  for i = 0 to Array.length args - 1 do
    if i > 0 then Buffer.add_char buf ',';
    add_prio buf names 999 (Array.unsafe_get args i)
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

let print names t =
  let buf = Buffer.create 64 in
  add_prio buf names 1200 t;
  Buffer.contents buf

let to_string t = print None t

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Alpha-invariant rendering: unbound variables are numbered by first
   occurrence, so two alpha-equivalent terms print identically regardless
   of their variable ids.  Engines produce solution copies with fresh
   (engine-dependent) variables; this is the form to compare across
   engines.  Variable [i] prints as the quoted atom ['_V<i>']. *)
let to_canonical_string t = print (Some (Hashtbl.create 8)) t
