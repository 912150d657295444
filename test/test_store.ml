(* Facts as data: column stores, their on-demand argument indexes, the
   clause view, and stores through session overlays. *)

module Term = Ace_term.Term
module Config = Ace_machine.Config
module Stats = Ace_machine.Stats
module Engine = Ace_core.Engine
module Database = Ace_lang.Database
module Store = Ace_lang.Store
module Clause = Ace_lang.Clause
module Program = Ace_lang.Program
module Canon = Ace_check.Canon
open Test_util

let compiled = { Config.default with Config.compile = true }
let par2 = { (Config.all_optimizations ~agents:2 ()) with Config.compile = true }

let printed r = List.map Ace_term.Pp.to_string r.Engine.solutions

(* The solve KB's shape: [nodes] nodes with three out-links and one tag
   each. *)
let kb nodes =
  let rng = Random.State.make [| 7 |] in
  let b = Buffer.create (nodes * 64) in
  for i = 0 to nodes - 1 do
    for _ = 1 to 3 do
      Printf.bprintf b "link(k%d, k%d).\n" i (Random.State.int rng nodes)
    done
  done;
  for i = 0 to nodes - 1 do
    Printf.bprintf b "tag(k%d, %d).\n" i (Random.State.int rng 50)
  done;
  Buffer.contents b

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* 7,000 nodes: 21,000 link/2 and 7,000 tag/2 facts.  The live heap a
   fact costs once consulted and prepared, and again once a call has
   built link/2's index on each argument: each reading includes the
   symbols the facts name.  As clauses, a fact held 67 words. *)
let test_words_per_fact () =
  let nodes = 7_000 in
  let text = kb nodes in
  let facts = float_of_int (4 * nodes) in
  let w0 = live_words () in
  let p = Engine.prepare (Program.db (Program.consult_string text)) in
  let per_fact () = float_of_int (live_words () - w0) /. facts in
  let prepared = per_fact () in
  ignore (Engine.run Engine.Sequential compiled p (term "link(k5, X)"));
  ignore (Engine.run Engine.Sequential compiled p (term "link(X, k5)"));
  let indexed = per_fact () in
  let st = Option.get (Database.store (Engine.database p) "link" 2) in
  Alcotest.(check (list bool)) "both link/2 indexes built" [ true; true ]
    [ Store.indexed st 0; Store.indexed st 1 ];
  List.iter
    (fun (label, words) ->
      if words > 16. then
        Alcotest.failf "%s: %.1f live words a fact, more than 16" label words)
    [ ("prepared", prepared); ("indexed", indexed) ];
  ignore (Sys.opaque_identity (text, p))

(* Once link/2's second-argument index exists, [link(X, kN)] tries its
   matching rows only, where a dispatch tree switching on the first
   argument tried all 21,000. *)
let test_second_argument_tries () =
  let p = Engine.prepare_string (kb 7_000) in
  List.iter
    (fun n ->
      let r =
        Engine.run Engine.Sequential compiled p
          (term (Printf.sprintf "link(X, k%d)" n))
      in
      Alcotest.(check int)
        (Printf.sprintf "link(X, k%d): a try per answer" n)
        (List.length r.Engine.solutions)
        r.Engine.stats.Stats.clause_tries)
    [ 5; 77; 6_999 ]

(* A call binding every argument probes each argument's index,
   building one no call has needed yet even when another exists, and
   tries the smallest group: here each all-bound call has an argument
   whose group holds exactly its answers. *)
let test_all_bound_tries () =
  let p =
    Engine.prepare_string "a(1, x). a(1, y). a(1, z). a(2, w). a(3, v). a(1, u)."
  in
  let st = Option.get (Database.store (Engine.database p) "a" 2) in
  let run goal = Engine.run Engine.Sequential compiled p (term goal) in
  Alcotest.(check int) "a(1, X)" 4 (List.length (run "a(1, X)").Engine.solutions);
  Alcotest.(check (list bool)) "first argument indexed" [ true; false ]
    [ Store.indexed st 0; Store.indexed st 1 ];
  List.iter
    (fun (goal, answers) ->
      let r = run goal in
      Alcotest.(check int) (goal ^ ": answers") answers
        (List.length r.Engine.solutions);
      Alcotest.(check int) (goal ^ ": a try per answer") answers
        r.Engine.stats.Stats.clause_tries)
    [ ("a(1, z)", 1); ("a(1, u)", 1); ("a(2, w)", 1); ("a(4, z)", 0);
      ("a(1, q)", 0) ];
  Alcotest.(check (list bool)) "second argument indexed" [ true; true ]
    [ Store.indexed st 0; Store.indexed st 1 ];
  Alcotest.(check int) "two builds" 2 (Store.builds st)

(* same_gen's [edge(P, X)] binds only its second argument: compiled, it
   now probes that argument's index, and tries fewer clauses than the
   interpreter's first-argument table leaves it. *)
let test_same_gen_tries () =
  let b = Buffer.create 4096 in
  Buffer.add_string b ":- table(sg/2).\n";
  let last = (1 lsl 8) - 1 in
  for i = 1 to last do
    Printf.bprintf b "node(n%d).\n" i;
    if 2 * i <= last then Printf.bprintf b "edge(n%d, n%d).\n" i (2 * i);
    if (2 * i) + 1 <= last then Printf.bprintf b "edge(n%d, n%d).\n" i ((2 * i) + 1)
  done;
  Buffer.add_string b "sg(X, X) :- node(X).\n";
  Buffer.add_string b "sg(X, Y) :- edge(P, X), sg(P, Q), edge(Q, Y).\n";
  let p = Engine.prepare_string (Buffer.contents b) in
  let run config = Engine.run Engine.Sequential config p (term "sg(n128, X)") in
  let c = run compiled and i = run Config.default in
  Alcotest.(check (list string)) "same answers"
    (Canon.multiset i.Engine.solutions) (Canon.multiset c.Engine.solutions);
  Alcotest.(check int) "128 answers" 128 (List.length c.Engine.solutions);
  let tries r = r.Engine.stats.Stats.clause_tries in
  if tries c >= tries i then
    Alcotest.failf "compiled tried %d clauses, interpreted %d" (tries c) (tries i)

(* Which predicates freeze stores: untabled ones whose clauses are all
   facts with atomic arguments.  An assert into a frozen database turns
   a store back into clauses; the next freeze stores it again. *)
let test_what_is_stored () =
  let db =
    Program.db
      (Program.consult_string
         ":- table(tb/1).\n\
          a(1, x). a(-3, y). a(1, z).\n\
          s(f(1)). s(2).\n\
          v(X, 1).\n\
          r(X) :- a(X, _).\n\
          tb(1).\n\
          z.")
  in
  Database.freeze db;
  let stored () =
    List.map
      (fun (n, k) -> Database.store db n k <> None)
      [ ("a", 2); ("s", 1); ("v", 2); ("r", 1); ("tb", 1); ("z", 0) ]
  in
  Alcotest.(check (list bool)) "stored" [ true; false; false; false; false; true ]
    (stored ());
  Alcotest.(check int) "every clause counted" 9 (Database.total_clauses db);
  Database.assertz db (Clause.of_term (term "a(2, w)"));
  Alcotest.(check bool) "thawed" true (Database.store db "a" 2 = None);
  Alcotest.(check (list string)) "clauses in source order"
    [ "a(1,x)"; "a(-3,y)"; "a(1,z)"; "a(2,w)" ]
    (List.map
       (fun c -> Ace_term.Pp.to_string c.Clause.head)
       (Database.clauses_of db "a" 2));
  Database.freeze db;
  Alcotest.(check bool) "stored again" true (Database.store db "a" 2 <> None);
  Alcotest.(check (list string)) "compiled answers" [ "a(1,x)"; "a(1,z)" ]
    (solutions ~config:compiled
       "a(1, x). a(-3, y). a(1, z). a(2, w)." "a(1, X)")

(* Through a session overlay, a retracted base row is hidden on the
   compiled path (its rows) and on the interpreted one (its clause
   view), and the session's own clauses come before and after the rows
   in assert order. *)
let test_overlay_rows () =
  let p = Engine.prepare_string "p(1, a). p(2, b). p(3, a)." in
  let s = Engine.session p in
  let answers config goal =
    printed (Engine.run ~session:s Engine.Sequential config p (term goal))
  in
  let both label expected goal =
    List.iter
      (fun (mode, config) ->
        Alcotest.(check (list string)) (label ^ " " ^ mode) expected
          (answers config goal))
      [ ("interpreted", Config.default); ("compiled", compiled) ]
  in
  Alcotest.(check bool) "retract a base row" true
    (Database.retract s (Clause.of_term (term "p(2, X)")));
  both "tombstone" [ "p(1,a)"; "p(3,a)" ] "p(X, Y)";
  Database.asserta s (Clause.of_term (term "p(0, a)"));
  Database.assertz s (Clause.of_term (term "p(4, a)"));
  Database.assertz s (Clause.of_term (term "(p(X, c) :- X = 5)"));
  both "merged" [ "p(0,a)"; "p(1,a)"; "p(3,a)"; "p(4,a)"; "p(5,c)" ] "p(X, Y)";
  both "by second argument" [ "p(0,a)"; "p(1,a)"; "p(3,a)"; "p(4,a)" ] "p(X, a)";
  Alcotest.(check bool) "retract the session's own" true
    (Database.retract s (Clause.of_term (term "p(0, a)")));
  both "own clause gone" [ "p(1,a)"; "p(3,a)"; "p(4,a)" ] "p(X, a)";
  Alcotest.(check int) "one tombstone" 1 (Database.tombstones s);
  Alcotest.(check (list string)) "base untouched"
    [ "p(1,a)"; "p(2,b)"; "p(3,a)" ]
    (printed (Engine.run Engine.Sequential compiled p (term "p(X, Y)")))

(* Two domains make the first call on an unindexed argument at the same
   moment: exactly one index is built, and both read the same answers.
   Repeated over fresh programs, so the two really race on some. *)
let test_concurrent_first_build () =
  for round = 1 to 20 do
    let p = Engine.prepare_string (kb 2_000) in
    let st = Option.get (Database.store (Engine.database p) "link" 2) in
    let ready = Atomic.make 0 in
    let goal = Printf.sprintf "link(X, k%d)" round in
    let call () =
      let g = term goal in
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      printed (Engine.run Engine.Sequential compiled p g)
    in
    let d = Domain.spawn call in
    let mine = call () in
    let theirs = Domain.join d in
    Alcotest.(check int) (goal ^ ": one index built") 1 (Store.builds st);
    Alcotest.(check bool) (goal ^ ": on the second argument") true
      (Store.indexed st 1 && not (Store.indexed st 0));
    Alcotest.(check (list string)) (goal ^ ": same answers") mine theirs
  done

(* The seeded mutation drops one row from every index probe (compiled
   calls) but not from the clause view (interpreted calls). *)
let test_mutation_hook () =
  let program = "e(a, 1). e(b, 2). e(a, 3). e(a, 4)." in
  let count config = List.length (solutions ~config program "e(a, X)") in
  Fun.protect
    ~finally:(fun () -> Store.mutation := None)
    (fun () ->
      Store.mutation := Some 1;
      Alcotest.(check (list int)) "one row dropped, compiled only" [ 3; 2 ]
        [ count Config.default; count compiled ]);
  Alcotest.(check int) "restored" 3 (count compiled)

(* ------------------------------------------------------------------ *)
(* Differential: compiled and par against the interpreted reference    *)
(* ------------------------------------------------------------------ *)

(* Values of a generated table: atoms and integers that collide once
   hashed (0, -1, max_int, min_int), so keys repeat. *)
let values =
  [| Term.atom "a"; Term.atom "b"; Term.atom "c"; Term.Int 0; Term.Int (-1);
     Term.Int max_int; Term.Int min_int |]

type op =
  | Query of Term.t
  | Asserta of Clause.t
  | Assertz of Clause.t
  | Retract of Clause.t
  | Assert_base of Clause.t  (* into the frozen ordinary database *)

let gen_case =
  QCheck2.Gen.(
    let* arity = int_range 1 3 in
    let* nrows = int_range 0 30 in
    let value = map (fun i -> values.(i)) (int_range 0 (Array.length values - 1)) in
    let* rows = list_repeat nrows (list_repeat arity value) in
    (* a call's arguments: constants, fresh variables, a variable
       repeated, or a structure no row holds *)
    let arg vars =
      frequency
        [ (4, value);
          (3, map (fun i -> Term.Var vars.(i)) (int_range 0 1));
          (1, return (Term.app "f" [ Term.atom "a" ])) ]
    in
    let call =
      let* () = return () in
      let vars = [| Term.fresh_var (); Term.fresh_var () |] in
      map (fun args -> Term.app "t" args) (list_repeat arity (arg vars))
    in
    let fact = map (fun args -> Clause.of_term (Term.app "t" args)) (list_repeat arity value) in
    let session_clause =
      frequency
        [ (3, fact);
          (* a fact with a variable, and a rule, among the rows *)
          (1, map (fun c -> Clause.of_term c) call);
          (1,
           map
             (fun c ->
               Clause.of_term
                 (Term.app ":-" [ c; Term.app "=" [ Term.Int 1; Term.Int 1 ] ]))
             call) ]
    in
    let op =
      frequency
        [ (4, map (fun g -> Query g) call);
          (1, map (fun c -> Asserta c) session_clause);
          (1, map (fun c -> Assertz c) session_clause);
          (2, map (fun c -> Retract (Clause.of_term c)) call);
          (1, map (fun c -> Assert_base c) fact) ]
    in
    let* ops = list_size (int_range 1 8) op in
    return (arity, rows, ops))

let show_case (_, rows, ops) =
  let clause c = Ace_term.Pp.to_string (Clause.to_term c) in
  String.concat "\n"
    (List.map
       (fun r -> Ace_term.Pp.to_string (Term.app "t" r) ^ ".")
       rows
    @ List.map
        (function
          | Query g -> "?- " ^ Ace_term.Pp.to_string g
          | Asserta c -> "asserta " ^ clause c
          | Assertz c -> "assertz " ^ clause c
          | Retract c -> "retract " ^ clause c
          | Assert_base c -> "assert into base " ^ clause c)
        ops)

(* Runs the case's operations: queries through a session overlay (and,
   after an assert into the base, against the base itself), each on
   interpreted seq, seq/c and par@2.  seq/c must answer exactly as the
   interpreter, in order; par the same multiset. *)
let differential (arity, rows, ops) =
  let db = Database.create () in
  List.iter (fun r -> Database.assertz db (Clause.of_term (Term.app "t" r))) rows;
  (* a rule over the table, so rows are also reached from a body, by a
     register call that is not the last *)
  let open_call name = Term.app name (List.init arity (fun _ -> Term.var ())) in
  let via = open_call "via" in
  let first = match via with Term.Struct (_, a) -> a.(0) | _ -> assert false in
  Database.assertz db
    (Clause.of_term
       (Term.app ":-"
          [ via;
            Term.app ","
              [ (match via with
                 | Term.Struct (_, a) -> Term.Struct (Ace_term.Symbol.intern "t", a)
                 | _ -> assert false);
                Term.app "=" [ first; first ] ] ]));
  let p = Engine.prepare db in
  let session = ref (Some (Engine.session p)) in
  let agree goal =
    let run kind config =
      match Engine.run ?session:!session kind config p goal with
      | r -> Ok (Canon.strings r.Engine.solutions)
      | exception Ace_core.Errors.Engine_error m -> Error m
    in
    let reference = run Engine.Sequential Config.default in
    let sorted = Result.map (List.sort compare) in
    reference = run Engine.Sequential compiled
    && sorted reference = sorted (run Engine.Par_or par2)
  in
  List.for_all
    (function
      | Query g -> agree g
      | Asserta c -> Option.iter (fun s -> Database.asserta s c) !session; true
      | Assertz c -> Option.iter (fun s -> Database.assertz s c) !session; true
      | Retract c ->
        Option.iter (fun s -> ignore (Database.retract s c : bool)) !session;
        true
      | Assert_base c ->
        (* sessions overlay a base no one asserts into: drop the session
           and query the base from here on *)
        session := None;
        Database.assertz db c;
        true)
    ops
  && agree (open_call "t")
  && agree (open_call "via")

let differential_prop =
  qcheck ~count:500 "store: seq/c and par agree with the interpreter"
    ~print:show_case gen_case differential

let suite =
  [
    Alcotest.test_case "store: words per fact" `Quick test_words_per_fact;
    Alcotest.test_case "store: second-argument calls try their rows" `Quick
      test_second_argument_tries;
    Alcotest.test_case "store: all-bound calls try their rows" `Quick
      test_all_bound_tries;
    Alcotest.test_case "store: same_gen compiled tries fewer" `Quick
      test_same_gen_tries;
    Alcotest.test_case "store: what freeze stores" `Quick test_what_is_stored;
    Alcotest.test_case "store: overlay rows and tombstones" `Quick
      test_overlay_rows;
    Alcotest.test_case "store: one index for two first callers" `Quick
      test_concurrent_first_build;
    Alcotest.test_case "store: mutation hook" `Quick test_mutation_hook;
    differential_prop;
  ]
