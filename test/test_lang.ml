(* Lexer, parser, clause compilation, database and program tests. *)

module Term = Ace_term.Term
module Lexer = Ace_lang.Lexer
module Parser = Ace_lang.Parser
module Clause = Ace_lang.Clause
module Database = Ace_lang.Database
module Program = Ace_lang.Program
open Test_util

let tokens src =
  List.map (fun l -> l.Lexer.token) (Lexer.tokenize src)

let token_pp = function
  | Lexer.Atom a -> "atom:" ^ a
  | Lexer.Var v -> "var:" ^ v
  | Lexer.Int n -> "int:" ^ string_of_int n
  | Lexer.Str s -> "str:" ^ s
  | Lexer.Punct p -> "punct:" ^ p
  | Lexer.Dot -> "dot"
  | Lexer.Eof -> "eof"

let check_tokens msg expected src =
  Alcotest.(check (list string)) msg expected (List.map token_pp (tokens src))

let test_lexer_basic () =
  check_tokens "atoms and vars"
    [ "atom:foo"; "var:X"; "var:_y"; "int:42"; "dot"; "eof" ]
    "foo X _y 42 .";
  check_tokens "functor paren vs grouping"
    [ "atom:f"; "punct:(("; "var:X"; "punct:)"; "atom:f"; "punct:(";
      "var:X"; "punct:)"; "eof" ]
    "f(X) f (X)";
  (* a comment is layout: it breaks the adjacency as a space does *)
  check_tokens "comment before paren"
    [ "atom:f"; "punct:("; "var:X"; "punct:)"; "atom:g"; "punct:(";
      "var:Y"; "punct:)"; "eof" ]
    "f/*c*/(X) g%c\n(Y)";
  Alcotest.(check bool) "f/*c*/(x). is a syntax error, as f (x). is" true
    (List.for_all
       (fun src ->
         match Program.consult_string src with
         | _ -> false
         | exception Program.Error _ -> true)
       [ "f/*c*/(x)."; "f (x)." ]);
  check_tokens "symbolic atoms"
    [ "atom::-"; "atom:="; "atom:=.."; "atom:-"; "eof" ]
    ":- = =.. -";
  check_tokens "char code" [ "int:97"; "eof" ] "0'a";
  check_tokens "escaped char code" [ "int:10"; "eof" ] "0'\\n"

let test_lexer_quotes_and_comments () =
  check_tokens "quoted atom" [ "atom:hello world"; "eof" ] "'hello world'";
  check_tokens "doubled quote" [ "atom:it's"; "eof" ] "'it''s'";
  check_tokens "line comment skipped" [ "atom:a"; "atom:b"; "eof" ]
    "a % comment\nb";
  check_tokens "block comment skipped" [ "atom:a"; "atom:b"; "eof" ]
    "a /* multi\nline */ b";
  check_tokens "string" [ "str:hi"; "eof" ] "\"hi\""

let test_lexer_dot_disambiguation () =
  check_tokens "clause dot" [ "atom:a"; "dot"; "atom:b"; "dot"; "eof" ] "a. b.";
  check_tokens "dot at eof" [ "atom:a"; "dot"; "eof" ] "a."

let test_parser_precedence () =
  check_term "comma right assoc" "a, b, c" (term "a, b, c");
  (* the crucial ACE priority: '&' at 950 binds tighter than ','. *)
  Alcotest.(check bool) "par binds tighter than comma" true
    (Term.equal (term "a & b, c") (term "','('&'(a, b), c)"));
  check_term "comma inside par needs parens" "a & (b, c)" (term "a & (b, c)");
  check_term "arith precedence" "1 + 2 * 3" (term "1 + 2 * 3");
  Alcotest.(check bool) "plus of times" true
    (Term.equal (term "1 + 2 * 3") (term "+(1, *(2, 3))"));
  Alcotest.(check bool) "left assoc minus" true
    (Term.equal (term "1 - 2 - 3") (term "-(-(1, 2), 3)"));
  Alcotest.(check bool) "xfy caret" true
    (Term.equal (term "2 ^ 3 ^ 4") (term "^(2, ^(3, 4))"));
  Alcotest.(check bool) "clause op" true
    (Term.equal (term "h :- b") (term ":-(h, b)"))

let test_parser_lists_and_negatives () =
  check_term "list" "[1,2,3]" (term "[1, 2, 3]");
  Alcotest.(check bool) "list tail keeps open end" true
    (let printed = Ace_term.Pp.to_string (term "[1, 2 | X]") in
     String.length printed > 7 && String.sub printed 0 7 = "[1,2|_G");
  check_term "nested list" "[[a],[b,[c]]]" (term "[[a],[b,[c]]]");
  check_term "negative literal" "-5" (term "-5");
  Alcotest.(check bool) "negation of var is struct" true
    (match Term.deref (term "-X") with
     | Term.Struct (s, [| _ |]) when Ace_term.Symbol.name s = "-" -> true
     | _ -> false);
  check_term "arith with negative" "3 - -2" (term "3 - -2")

let test_parser_errors () =
  let fails src =
    match Parser.term_of_string src with
    | exception Parser.Error _ -> true
    | exception Lexer.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing dot" true (fails "foo(");
  Alcotest.(check bool) "unbalanced paren" true (fails "f(a.");
  Alcotest.(check bool) "two terms" true (fails "a b.");
  Alcotest.(check bool) "unterminated quote" true (fails "'abc.")

let test_variable_scoping () =
  match Parser.read_all "p(X, X, Y). q(X)." with
  | [ c1; c2 ] ->
    Alcotest.(check int) "clause 1 vars" 2 (List.length c1.Parser.var_names);
    Alcotest.(check int) "clause 2 vars" 1 (List.length c2.Parser.var_names);
    let x1 = List.assoc "X" c1.Parser.var_names in
    let x2 = List.assoc "X" c2.Parser.var_names in
    Alcotest.(check bool) "clause-local scope" true (x1.Term.vid <> x2.Term.vid)
  | _ -> Alcotest.fail "expected two clauses"

let test_clause_compilation () =
  let c = Clause.of_term (term "p :- a, (b & (c, d)), e") in
  (match c.Clause.body with
   | [ Clause.Call _; Clause.Par [ b1; b2 ]; Clause.Call _ ] ->
     Alcotest.(check int) "first branch one goal" 1 (List.length b1);
     Alcotest.(check int) "second branch two goals" 2 (List.length b2)
   | _ -> Alcotest.fail "unexpected body structure");
  let fact = Clause.of_term (term "f(1)") in
  Alcotest.(check int) "fact has empty body" 0 (List.length fact.Clause.body);
  Alcotest.(check bool) "malformed head rejected" true
    (match Clause.of_term (term "42 :- true") with
     | exception Clause.Malformed _ -> true
     | _ -> false)

let test_body_roundtrip () =
  (* compare canonical printing: of_term renames clause variables apart, so
     gensym numbers differ between round-trips while structure must not *)
  let check src =
    let c = Clause.of_term (term src) in
    let again = Clause.of_term (Clause.to_term c) in
    Alcotest.(check string) ("roundtrip " ^ src)
      (Ace_term.Pp.to_canonical_string (Clause.to_term c))
      (Ace_term.Pp.to_canonical_string (Clause.to_term again))
  in
  List.iter check
    [ "p :- q"; "p :- q, r"; "p :- q & r"; "p :- a, (b & c), d"; "p(X) :- q(X)" ]

let test_database_indexing () =
  let p =
    Program.consult_string
      "f(0, zero). f(s(N), succ) :- f(N, _). f(foo, atom). g(X) :- f(X, _)."
  in
  let db = Program.db p in
  let lookup s = Option.value ~default:[] (Database.lookup db (term s)) in
  Alcotest.(check int) "int key selects" 1 (List.length (lookup "f(0, R)"));
  Alcotest.(check int) "struct key selects" 1 (List.length (lookup "f(s(0), R)"));
  Alcotest.(check int) "atom key selects" 1 (List.length (lookup "f(foo, R)"));
  Alcotest.(check int) "var key selects all" 3 (List.length (lookup "f(X, R)"));
  Alcotest.(check int) "no key match" 0 (List.length (lookup "f(99, R)"));
  Alcotest.(check bool) "undefined predicate" true
    (Database.lookup db (term "nope(1)") = None);
  Alcotest.(check bool) "f is first-arg exclusive" true
    (Database.first_arg_exclusive db "f" 2);
  (* single-clause predicates are trivially exclusive *)
  Alcotest.(check bool) "single clause exclusive" true
    (Database.first_arg_exclusive db "g" 1);
  let db2 = Program.db (Program.consult_string "h(X, 1) :- q(X).\nh(Y, 2) :- q(Y).\nq(_).") in
  Alcotest.(check bool) "var-headed clauses not exclusive" false
    (Database.first_arg_exclusive db2 "h" 2)

let test_database_arities () =
  (* one symbol at four arities: each is its own predicate, in the
     base, through the frozen dispatch trees, the tabled registry and a
     session overlay *)
  let db =
    Program.db
      (Program.consult_string
         ":- table(p/2).\np. p(1). p(1, a). p(2, b). q(X) :- p(X, _).")
  in
  let count db s =
    match Test_util.compiled_candidates db (term s) with
    | None -> -1
    | Some clauses -> List.length clauses
  in
  let arities db =
    List.map (count db) [ "p"; "p(X)"; "p(X, Y)"; "p(X, Y, Z)" ]
  in
  Alcotest.(check (list int)) "unfrozen" [ 1; 1; 2; -1 ] (arities db);
  Database.freeze db;
  Alcotest.(check (list int)) "frozen" [ 1; 1; 2; -1 ] (arities db);
  let p = Ace_term.Symbol.intern "p" in
  Alcotest.(check (list bool)) "tabled p/2 only" [ false; false; true; false ]
    (List.map (Database.is_tabled db p) [ 0; 1; 2; 3 ]);
  Alcotest.(check (list string)) "clauses of p/1" [ "p(1)" ]
    (List.map
       (fun c -> Ace_term.Pp.to_string c.Clause.head)
       (Database.clauses_of db "p" 1));
  let s = Database.overlay db in
  Database.assertz s (Clause.of_term (term "p(1, 2, 3)"));
  Database.assertz s (Clause.of_term (term "p(3)"));
  Alcotest.(check (list int)) "session" [ 1; 2; 2; 1 ] (arities s);
  Alcotest.(check (list int)) "base untouched" [ 1; 1; 2; -1 ] (arities db);
  Alcotest.(check (list (pair string int))) "predicates"
    [ ("p", 0); ("p", 1); ("p", 2); ("p", 3); ("q", 1) ]
    (Database.predicates s)

let test_database_order () =
  let db = Database.create () in
  Database.assertz db (Clause.of_term (term "p(1)"));
  Database.assertz db (Clause.of_term (term "p(2)"));
  Database.asserta db (Clause.of_term (term "p(0)"));
  let heads =
    List.map
      (fun c -> Ace_term.Pp.to_string c.Clause.head)
      (Database.clauses_of db "p" 1)
  in
  Alcotest.(check (list string)) "asserta/assertz order" [ "p(0)"; "p(1)"; "p(2)" ]
    heads

let test_database_bucket_order () =
  (* keyed and variable-headed clauses interleaved: first-argument
     indexing must still return candidates in source order *)
  let db = Database.create () in
  List.iter
    (fun s -> Database.assertz db (Clause.of_term (term s)))
    [ "m(1, a)"; "m(X, any1)"; "m(1, b)"; "m(2, c)"; "m(X, any2)"; "m(1, d)" ];
  let snd_args cs =
    List.map
      (fun c ->
        match c.Clause.head with
        | Term.Struct (_, [| _; a |]) -> Ace_term.Pp.to_string a
        | _ -> "?")
      cs
  in
  let lookup s = Option.value ~default:[] (Database.lookup db (term s)) in
  Alcotest.(check (list string)) "key 1 in source order"
    [ "a"; "any1"; "b"; "any2"; "d" ]
    (snd_args (lookup "m(1, R)"));
  Alcotest.(check (list string)) "key 2 in source order" [ "any1"; "c"; "any2" ]
    (snd_args (lookup "m(2, R)"));
  Alcotest.(check (list string)) "unbound key sees everything"
    [ "a"; "any1"; "b"; "c"; "any2"; "d" ]
    (snd_args (lookup "m(K, R)"));
  Alcotest.(check (list string)) "unmatched key still sees var clauses"
    [ "any1"; "any2" ]
    (snd_args (lookup "m(9, R)"));
  Database.asserta db (Clause.of_term (term "m(1, front)"));
  Alcotest.(check (list string)) "asserta lands first"
    [ "front"; "a"; "any1"; "b"; "any2"; "d" ]
    (snd_args (lookup "m(1, R)"));
  Alcotest.(check bool) "duplicate keys not exclusive" false
    (Database.first_arg_exclusive db "m" 2);
  let db2 = Database.create () in
  List.iter
    (fun s -> Database.assertz db2 (Clause.of_term (term s)))
    [ "k(1, a)"; "k(1, b)"; "k(2, c)" ];
  Alcotest.(check bool) "duplicate keys, no var heads: not exclusive" false
    (Database.first_arg_exclusive db2 "k" 2)

let test_database_assertz_bulk () =
  (* assertz of N clauses is linear: a quadratic append would make this
     test hang rather than fail, but the count and order checks also pin
     the clause lists under load *)
  let db = Database.create () in
  let n = 10_000 in
  for i = 1 to n do
    Database.assertz db (Clause.of_term (term (Printf.sprintf "big(%d)" i)))
  done;
  Alcotest.(check int) "all clauses present" n
    (List.length (Database.clauses_of db "big" 1));
  let first_of s =
    match Database.lookup db (term s) with
    | Some [ c ] -> Ace_term.Pp.to_string c.Clause.head
    | _ -> "?"
  in
  Alcotest.(check string) "indexed lookup finds one" "big(7777)"
    (first_of "big(7777)")

(* A frozen database's interpreted lookup allocates nothing: the
   first-argument table reads the call's first argument as two
   integers, and every list it returns is built, in its [Some], at
   freeze.  10,000 calls each with an integer, an atom, a structure, an
   unbound and an unmatched first argument, on the database and through
   a session overlay that holds no clause of the predicate. *)
let test_database_lookup_words () =
  let db =
    Program.db
      (Program.consult_string
         "f(0, zero). f(s(N), succ) :- f(N, _). f(foo, atom). g(X) :- f(X, _).")
  in
  Database.freeze db;
  let session = Database.overlay db in
  Database.assertz session (Clause.of_term (term "h(1)"));
  List.iter
    (fun (label, db) ->
      List.iter
        (fun goal ->
          let call = term goal in
          ignore (Database.lookup db call);
          let w0 = Gc.minor_words () in
          for _ = 1 to 10_000 do
            ignore (Sys.opaque_identity (Database.lookup db call))
          done;
          let words = Gc.minor_words () -. w0 in
          if words <> 0. then
            Alcotest.failf "%s %s: %.0f minor words over 10,000 lookups, not 0"
              label goal words)
        [ "f(0, R)"; "f(foo, R)"; "f(s(0), R)"; "f(X, R)"; "f(99, R)" ])
    [ ("frozen", db); ("overlay", session) ]

let test_program_directives () =
  let p = Program.consult_string ":- mode(f(+, -)). f(X, X)." in
  Alcotest.(check int) "one directive" 1 (List.length (Program.directives p));
  Alcotest.(check bool) "clause asserted" true (Database.mem (Program.db p) "f" 2)

let test_parse_query () =
  let q = Program.parse_query "f(X, Y)" in
  Alcotest.(check int) "two query vars" 2 (List.length q.Program.query_vars);
  let q2 = Program.parse_query "?- g(1)." in
  check_term "?- stripped" "g(1)" q2.Program.goal

(* property: printing then re-parsing gives an equal term *)
let prop_print_parse_roundtrip =
  qcheck "pp/parse round-trip" ground_term_gen (fun t ->
      let printed = Ace_term.Pp.to_string t in
      match Parser.term_of_string (printed ^ " .") with
      | t' -> Term.equal t t'
      | exception _ -> false)

(* The lexer and parser allocate per token, not per character:
   [Gc.minor_words] of one call after a warm-up call, pinned a little
   above what it reads (159 words for the goal, 149 a clause for the
   facts).  With an option per character read, these read 290 and 302. *)
let test_parse_words () =
  let words f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    int_of_float (Gc.minor_words () -. w0)
  in
  let goal = words (fun () -> Program.parse_query "hop3(k1, W)") in
  if goal > 180 then
    Alcotest.failf "parse_query: %d minor words, pinned at 180" goal;
  let facts =
    String.concat ""
      (List.init 1000 (fun i -> Printf.sprintf "link(k%d, k%d).\n" i (i * 7 mod 1000)))
  in
  let per_clause = words (fun () -> Program.consult_string facts) / 1000 in
  if per_clause > 165 then
    Alcotest.failf "consult: %d minor words a clause, pinned at 165" per_clause

let suite =
  [ Alcotest.test_case "lexer basics" `Quick test_lexer_basic;
    Alcotest.test_case "lexer quotes/comments" `Quick test_lexer_quotes_and_comments;
    Alcotest.test_case "lexer dots" `Quick test_lexer_dot_disambiguation;
    Alcotest.test_case "operator precedence" `Quick test_parser_precedence;
    Alcotest.test_case "lists and negatives" `Quick test_parser_lists_and_negatives;
    Alcotest.test_case "parse errors" `Quick test_parser_errors;
    Alcotest.test_case "variable scoping" `Quick test_variable_scoping;
    Alcotest.test_case "clause compilation" `Quick test_clause_compilation;
    Alcotest.test_case "body round-trip" `Quick test_body_roundtrip;
    Alcotest.test_case "database indexing" `Quick test_database_indexing;
    Alcotest.test_case "database arities" `Quick test_database_arities;
    Alcotest.test_case "database order" `Quick test_database_order;
    Alcotest.test_case "database bucket order" `Quick test_database_bucket_order;
    Alcotest.test_case "database bulk assertz" `Quick test_database_assertz_bulk;
    Alcotest.test_case "database lookup allocates nothing" `Quick
      test_database_lookup_words;
    Alcotest.test_case "program directives" `Quick test_program_directives;
    Alcotest.test_case "parse query" `Quick test_parse_query;
    Alcotest.test_case "parsing allocates per token" `Quick test_parse_words;
    prop_print_parse_roundtrip ]
