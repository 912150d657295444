(* The term printer: golden renderings (recorded from the Format-based
   printer this one replaced, which they must keep matching byte for
   byte), canonical variable numbering, single-line output, and the
   print/parse round trip. *)

open Test_util
module Symbol = Ace_term.Symbol
module Pp = Ace_term.Pp

(* (source text, [Pp.to_string] of the parsed term) *)
let parsed_goldens =
  [ ("1 + 2 * 3", "1 + 2 * 3");
    ("(1 + 2) * 3", "(1 + 2) * 3");
    ("1 - (2 - 3)", "1 - (2 - 3)");
    ("(1 + 2) + 3", "1 + 2 + 3");
    ("2 ^ 3 ^ 4", "2 ^ 3 ^ 4");
    ("(2 ^ 3) ^ 4", "(2 ^ 3) ^ 4");
    ("a = (b = c)", "a = (b = c)");
    ("(a , b) , c", "(a, b), c");
    ("a & (b, c)", "a & (b, c)");
    ("a :- b ; c -> d , e", "a :- b ; c -> d, e");
    ("(a :- b) :- c", "(a :- b) :- c");
    ("f((a :- b))", "f((a :- b))");
    ("f((a ; b))", "f((a ; b))");
    ("f(a, (b, c))", "f(a,(b, c))");
    ("[a, (b, c)]", "[a,(b, c)]");
    ({|\+ a|}, {|\+ a|});
    ({|\+ (a, b)|}, {|\+ (a, b)|});
    ("- (1 + 2)", "- (1 + 2)");
    ("1 - -1", "1 - -1");
    ("2 ^ -1", "2 ^ -1");
    ("f(-1)", "f(-1)");
    ("[a | b]", "[a|b]");
    ("[a | [b | [c]]]", "[a,b,c]");
    ("'[]'", "[]");
    ("'it''s'", {|'it\'s'|});
    ("'hello world'", "'hello world'");
    ("'A'", "'A'");
    ("'.'", "'.'");
    ("''", "''");
    ({|'a\\b'|}, {|'a\\b'|});
    ({|'\n'|}, {|'\n'|});
    ("f(+, -)", "f(+,-)");
    ("f(;, '|', '[]', [])", "f(;,'|',[],[])");
    ("'Foo'(a)", "'Foo'(a)");
    ("-(a, b, c)", "-(a,b,c)");
    ("a =.. [f, b]", "=..(a,[f,b])");
    ({|"ab"|}, "[97,98]") ]

let i = Term.int
let a = Term.atom
let app = Term.app

(* Terms the parser reads differently (or not at all), built directly. *)
let built_goldens =
  [ (app "-" [ i 1 ], "- 1");
    (app "-" [ i (-1) ], "- -1");
    (app "-" [ i 1; i (-1) ], "1 - -1");
    (app "-" [ i 1; app "-" [ i 1 ] ], "1 - - 1");
    (app "^" [ i (-1); i 2 ], "(-1) ^ 2");
    (app "^" [ app "-" [ i 1 ]; i 2 ], "(- 1) ^ 2");
    (app "^" [ i 2; app "-" [ i 1 ] ], "2 ^ - 1");
    (app "," [ app ":-" [ a "a"; a "b" ]; a "c" ], "(a :- b), c");
    (app "f" [ app ":-" [ a "a" ] ], "f((:- a))");
    (app "\\+" [ app "=" [ a "a"; a "b" ] ], {|\+ a = b|});
    (app "." [ i (-1); a "[]" ], "[-1]");
    (i min_int, string_of_int min_int) ]

(* (source text, [Pp.to_canonical_string] of the parsed term) *)
let canonical_goldens =
  [ ("[1, 2 | X]", "[1,2|'_V0']");
    ("f(X, Y, X, g(Z))", "f('_V0','_V1','_V0',g('_V2'))");
    ("f(X, _, _Y)", "f('_V0','_V1','_V2')");
    ("X // 2 mod 3", "'_V0' // 2 mod 3");
    ( {|p(X, Y) :- q(X, Z), \+ r(Z), Y = [Z | X]|},
      {|p('_V0','_V1') :- q('_V0','_V2'), \+ r('_V2'), '_V1' = ['_V2'|'_V0']|} ) ]

let test_goldens () =
  List.iter (fun (src, want) -> check_term src want (term src)) parsed_goldens;
  List.iter (fun (t, want) -> check_term want want t) built_goldens;
  List.iter
    (fun (src, want) ->
      Alcotest.(check string) src want (Pp.to_canonical_string (term src)))
    canonical_goldens

let test_variables () =
  let v = Term.fresh_var () in
  let t = app "f" [ Term.Var v; Term.Var v ] in
  let g = Printf.sprintf "_G%d" v.Term.vid in
  check_term "unbound variables print by id" (Printf.sprintf "f(%s,%s)" g g) t;
  Alcotest.(check string) "canonical" "f('_V0','_V0')" (Pp.to_canonical_string t);
  Alcotest.(check bool) "canonical printing leaves the term unbound" true
    (v.Term.binding = None);
  (* a bound variable prints as its value, in both forms *)
  let w = Term.fresh_var () in
  w.Term.binding <- Some (a "x");
  check_term "bound variable" "g(x)" (app "g" [ Term.Var w ]);
  Alcotest.(check string) "bound variable, canonical" "g(x)"
    (Pp.to_canonical_string (app "g" [ Term.Var w ]))

(* Well past the 78-column margin the Format printer wrapped at: one
   line through every entry point. *)
let test_single_line () =
  let t =
    app "long_predicate_name"
      (List.init 12 (fun k ->
           app "pair" [ a (Printf.sprintf "node%d" k); i (k * 1000) ]))
  in
  let line = Pp.to_string t in
  Alcotest.(check bool) "wider than 78 columns" true (String.length line > 78);
  Alcotest.(check bool) "no newline" false (String.contains line '\n');
  Alcotest.(check string) "pp prints the same line" line
    (Format.asprintf "%a" Pp.pp t);
  (* a long list prints without using stack along its spine *)
  let long = Term.of_list (List.init 200_000 (fun k -> i k)) in
  Alcotest.(check int) "long list" 1_288_891 (String.length (Pp.to_string long))

(* Alpha-equivalence: equal up to a consistent renaming of variables. *)
let alpha_equiv x y =
  let fwd = Hashtbl.create 8 and bwd = Hashtbl.create 8 in
  let rec go x y =
    match Term.deref x, Term.deref y with
    | Term.Var u, Term.Var v -> (
      match Hashtbl.find_opt fwd u.Term.vid, Hashtbl.find_opt bwd v.Term.vid with
      | None, None ->
        Hashtbl.add fwd u.Term.vid v.Term.vid;
        Hashtbl.add bwd v.Term.vid u.Term.vid;
        true
      | Some v', Some u' -> v' = v.Term.vid && u' = u.Term.vid
      | _ -> false)
    | Term.Atom s, Term.Atom s' -> Symbol.equal s s'
    | Term.Int n, Term.Int m -> n = m
    | Term.Struct (f, xs), Term.Struct (g, ys) ->
      Symbol.equal f g
      && Array.length xs = Array.length ys
      && Array.for_all2 go xs ys
    | _ -> false
  in
  go x y

(* Terms over the printer's operators, quoted atoms, negative numbers,
   lists and shared variables.  Left out, as the parser reads them back
   differently: prefix minus before a term printed with a leading digit
   ("- 1 ^ 2" reads back as (-1) ^ 2) or before an operator term of
   priority 200 ("- a ^ 2" and "- - a" do not parse: the printer takes
   prefix minus as fy, the parser as fx), and operator atoms as
   operands. *)
let printable_gen =
  QCheck2.Gen.(
    let* nvars = int_range 1 3 in
    let pool = Array.init nvars (fun _ -> Term.var ()) in
    let leaf =
      oneof
        [ map Term.int (int_range (-20) 20);
          map a
            (oneofl
               [ "a"; "foo"; "bar_baz"; "[]"; "{}"; "!"; "hello world";
                 "it's"; "A"; "a\\b" ]);
          map (fun k -> pool.(k)) (int_range 0 (nvars - 1)) ]
    in
    let infix =
      [ ","; ";"; "->"; ":-"; "&"; "="; "is"; "<"; "=<"; "+"; "-"; "*"; "/";
        "mod"; "^" ]
    in
    let prio_200 t =
      match Term.deref t with
      | Term.Struct (s, [| _ |]) -> Symbol.name s = "-"
      | Term.Struct (s, [| _; _ |]) -> Symbol.name s = "^"
      | _ -> false
    in
    sized
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             let sub = self (n / 2) in
             frequency
               [ (2, leaf);
                 (3, map2 (fun f args -> app f args) (oneofl [ "f"; "g"; "pair" ])
                       (list_size (int_range 1 3) sub));
                 (3, map3 (fun op x y -> app op [ x; y ]) (oneofl infix) sub sub);
                 (1, map2 (fun xs tl -> List.fold_right Term.cons xs tl)
                       (list_size (int_range 1 3) sub)
                       (oneof [ return Term.nil; sub ]));
                 (1, map (fun x -> app "\\+" [ x ]) sub);
                 (1, map
                       (fun x ->
                         let s = Pp.to_string x in
                         if prio_200 x || (s.[0] >= '0' && s.[0] <= '9') then
                           app "-" [ app "f" [ x ] ]
                         else app "-" [ x ])
                       sub) ]))

let prop_parse_query_roundtrip =
  qcheck ~count:500 "parse_query (to_string t) alpha-equivalent to t"
    printable_gen (fun t ->
      let printed = Pp.to_string t in
      match Ace_lang.Program.parse_query printed with
      | q ->
        alpha_equiv t q.Ace_lang.Program.goal
        || QCheck2.Test.fail_reportf "%s read back as %s" printed
             (Pp.to_string q.Ace_lang.Program.goal)
      | exception e ->
        QCheck2.Test.fail_reportf "%s: %s" printed (Printexc.to_string e))

(* How an atom was printed before each symbol's text was computed at
   intern time: the name rescanned and quoted on every call.  The
   reference for [Symbol.text] and for atoms and functors in [Pp]. *)
let reference_atom name =
  let is_letter =
    String.length name > 0
    && (match name.[0] with 'a' .. 'z' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
         name
  in
  let is_symbolic =
    String.length name > 0
    && String.for_all (fun c -> String.contains "+-*/\\^<>=~:.?@#&$" c) name
  in
  if
    String.equal name "."
    || (not (is_letter || is_symbolic) && not (List.mem name [ "[]"; "!"; ";"; "{}" ]))
  then begin
    let buf = Buffer.create 16 in
    Buffer.add_char buf '\'';
    String.iter
      (function
        | '\'' -> Buffer.add_string buf "\\'"
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      name;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  end
  else name

(* An atom and a functor of arity 3 (which no operator has) named
   [name], printed, against the reference. *)
let check_name name =
  let s = Symbol.intern name in
  let want = reference_atom name in
  let args = [| a "x"; i 1; a "[]" |] in
  String.equal (Symbol.text s) want
  && String.equal (Pp.to_string (Term.Atom s)) want
  && String.equal (Pp.to_string (Term.Struct (s, args))) (want ^ "(x,1,[])")

let names =
  [ "a"; "foo"; "bar_baz"; "aB9_"; "+"; "=.."; "\\+"; "-->"; "[]"; "!"; ";"; "{}";
    "."; ".."; ""; "A"; "_x"; "9lives"; "hello world"; "it's"; "a\\b"; "a\nb"; "'";
    "\\"; "[a]"; "{"; "caf\xc3\xa9"; "f(x)"; "a.b"; "$"; ","; "|"; "\000" ]

let name_gen =
  QCheck2.Gen.(
    oneof
      [ oneofl names;
        string_size
          ~gen:
            (frequency
               [ (4, char_range 'a' 'z');
                 (2, oneofl [ '+'; '-'; '.'; ':'; '='; '\\'; '$' ]);
                 (1, oneofl [ 'A'; '_'; '0'; '\''; '\n'; ' '; '!'; ';'; '['; ']'; '{'; '}'; '\200' ]) ])
          (int_range 0 6) ])

let prop_atom_text =
  qcheck ~count:500 "atoms print as the per-call quoting did" name_gen (fun name ->
      check_name name
      || QCheck2.Test.fail_reportf "%S printed %S, want %S" name
           (Pp.to_string (Term.atom name)) (reference_atom name))

(* Symbols interned after the text table was sized: enough new names to
   make it grow at least once, then two domains interning and printing
   new atoms at once (each checked in the joining domain). *)
let test_new_symbols () =
  let shape k =
    match k mod 4 with
    | 0 -> Printf.sprintf "pp_new_%d" k
    | 1 -> Printf.sprintf "Pp new %d" k
    | 2 -> Printf.sprintf "pp'%d\\\n" k
    | _ -> String.make (1 + (k mod 7)) '+' ^ Printf.sprintf "%d" k
  in
  let before = Symbol.count () in
  for k = 0 to before do
    if not (check_name (shape k)) then Alcotest.failf "new symbol %S misprinted" (shape k)
  done;
  Alcotest.(check bool) "the table grew" true (Symbol.count () > 2 * before);
  let print_new d =
    List.init 2000 (fun k ->
        let name = Printf.sprintf "%s_dom%d" (shape k) d in
        let s = Symbol.intern name in
        (name, Pp.to_string (Term.Struct (s, [| Term.Atom s; i k |]))))
  in
  let domains = List.init 2 (fun d -> Domain.spawn (fun () -> print_new d)) in
  List.iter
    (fun printed ->
      List.iteri
        (fun k (name, got) ->
          let text = reference_atom name in
          Alcotest.(check string) name (Printf.sprintf "%s(%s,%d)" text text k) got)
        printed)
    (List.map Domain.join domains)

let suite =
  [ Alcotest.test_case "goldens" `Quick test_goldens;
    Alcotest.test_case "variables" `Quick test_variables;
    Alcotest.test_case "single line" `Quick test_single_line;
    prop_parse_query_roundtrip;
    prop_atom_text;
    Alcotest.test_case "new symbols, from two domains" `Quick test_new_symbols ]
