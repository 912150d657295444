(* The clause compiler: golden instruction listings, switch-on-term
   dispatch through the frozen database, the seeded mutation hook, and
   compiled-vs-interpreted solution equivalence. *)

module Term = Ace_term.Term
module Code = Ace_lang.Code
module Clause = Ace_lang.Clause
module Database = Ace_lang.Database
module Program = Ace_lang.Program
module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Canon = Ace_check.Canon
module Gen_prog = Ace_check.Gen_prog

let compiled = { Config.default with Config.compile = true }

let clause_of program name arity idx =
  let db = Program.db (Program.consult_string program) in
  match List.nth_opt (Database.clauses_of db name arity) idx with
  | Some c -> c
  | None -> Alcotest.failf "no clause %d of %s/%d" idx name arity

let check_listing msg program name arity expected =
  let actual = Code.listing (Code.compile (clause_of program name arity 0)) in
  Alcotest.(check string) msg expected actual

(* ------------------------------------------------------------------ *)
(* Golden listings                                                     *)
(* ------------------------------------------------------------------ *)

let test_listing_fact () =
  check_listing "atom and int arguments" "p(a, 42)." "p" 2
    "  get_atom a, A0\n  get_int 42, A1\n"

let test_listing_ground () =
  (* a fully ground compound argument collapses to one shared template *)
  check_listing "ground argument" "d(point(1, 2))." "d" 1
    "  get_ground point(1,2), A0\n"

let test_listing_deep () =
  (* nested structures open read/write-mode unify ranges closed by pop;
     the list cell is ./2.  Frame slots are ordered by descending last
     occurrence (environment trimming), so H and T — live until the
     final call — get X0/X1 and the head-only X gets the last slot.  The
     body loads the callee's arguments into registers and [execute]s it:
     the last call drops the frame before the callee runs. *)
  check_listing "deep structure head"
    "p2(f(g(X), [H | T]), X) :- q(H, T)." "p2" 2
    (String.concat "\n"
       [ "  get_struct f/2, A0";
         "    unify_struct g/1";
         "      unify_var X2";
         "    pop";
         "    unify_struct ./2";
         "      unify_var X0";
         "      unify_var X1";
         "    pop";
         "  pop";
         "  get_val X2, A1";
         "  put_val X0, A0";
         "  put_val X1, A1";
         "  execute q/2";
         "" ])

let test_listing_arith () =
  (* builtins dispatch straight from the registers — no goal term is
     ever built for them, so the whole body runs on the scratch frame *)
  check_listing "arithmetic body"
    "s(N, F) :- N > 0, M is N - 1, F is M * 2." "s" 2
    (String.concat "\n"
       [ "  get_var X2, A0";
         "  get_var X0, A1";
         "  put_val X2, A0";
         "  put_int 0, A1";
         "  builtin >/2";
         "  put_var X1, A0";
         "  put_struct -(X2,1), A1";
         "  builtin is/2";
         "  put_val X0, A0";
         "  put_struct *(X1,2), A1";
         "  builtin is/2";
         "" ])

let test_listing_chain () =
  (* a non-final user call spills the frame: [call] carries the number of
     slots still live after it — X2 (only occurrence in the head and the
     first call) is trimmed away, X0/X1 survive to the last call *)
  check_listing "chained calls"
    "r(X, Y) :- q(X, Z), t(Z, Y)." "r" 2
    (String.concat "\n"
       [ "  get_var X2, A0";
         "  get_var X0, A1";
         "  put_val X2, A0";
         "  put_var X1, A1";
         "  call q/2, trim 2";
         "  put_val X1, A0";
         "  put_val X0, A1";
         "  execute t/2";
         "" ])

(* ------------------------------------------------------------------ *)
(* Switch-on-term dispatch                                             *)
(* ------------------------------------------------------------------ *)

(* Mixed first arguments: atoms, structures sharing a functor, lists and
   a catch-all variable clause.  The dispatch tree must prune clauses a
   bound first argument cannot match while keeping every variable clause
   and preserving source order. *)
let mixed =
  "m(a, 1). m(b, 2). m(f(c), 3). m(f(d), 4). m([], 5). m([x], 6). m(X, 7)."

let mixed_db =
  lazy
    (let db = Program.db (Program.consult_string mixed) in
     Database.freeze db;
     db)

let candidates goal =
  match Database.lookup_code (Lazy.force mixed_db) (Test_util.term goal) with
  | Some cs -> List.length cs
  | None -> Alcotest.failf "unexpectedly undefined: %s" goal

let test_dispatch_counts () =
  let expect = Alcotest.(check int) in
  (* each bound atom keeps its own clause plus the variable clause *)
  expect "m(a, R)" 2 (candidates "m(a, R)");
  expect "m(b, R)" 2 (candidates "m(b, R)");
  (* deep indexing splits f(c) from f(d) on the argument inside f/1 *)
  expect "m(f(c), R)" 2 (candidates "m(f(c), R)");
  expect "m(f(d), R)" 2 (candidates "m(f(d), R)");
  (* f with an unbound argument keeps both f/1 clauses *)
  expect "m(f(Z), R)" 3 (candidates "m(f(Z), R)");
  expect "m([], R)" 2 (candidates "m([], R)");
  expect "m([x], R)" 2 (candidates "m([x], R)");
  (* [y] matches no list clause's content but still reaches ./2's
     variable-argument clauses: only the catch-all plus m([x],_)'s
     cons-cell shape survive *)
  expect "m([y], R)" 2 (candidates "m([y], R)");
  (* unbound first argument: no pruning at all *)
  expect "m(X, R)" 7 (candidates "m(X, R)");
  (* an integer matches only the variable clause *)
  expect "m(99, R)" 1 (candidates "m(99, R)");
  Alcotest.(check bool)
    "undefined predicate is [None], not []" true
    (Database.lookup_code (Lazy.force mixed_db) (Test_util.term "zz(1)")
     = None)

(* Pruning must be invisible to semantics: the compiled engine's answers
   on every dispatch shape equal the interpreter's. *)
let test_dispatch_solutions () =
  List.iter
    (fun goal ->
      let query = goal ^ " ." in
      let run config =
        (Engine.solve_program Engine.Sequential config ~program:mixed ~query)
          .Engine.solutions
      in
      Alcotest.(check (list string))
        goal
        (Canon.multiset (run Config.default))
        (Canon.multiset (run compiled)))
    [ "m(a, R)"; "m(f(c), R)"; "m(f(Z), R)"; "m([], R)"; "m([x], R)";
      "m([y], R)"; "m(X, R)"; "m(99, R)" ]

(* The case table keeps every clause a call can match, in source order.
   Heads of [k/3] mix atoms, integers that collide once shifted into a
   hash code (0, -1, max_int, min_int), same-named functors of
   different arities, structures nested three deep (deep paths) and
   variables; calls draw from the same terms, so each switched position
   is sometimes bound, sometimes unbound, and sometimes bound to a key
   no clause has.  Built from terms: max_int and min_int have no
   literal.  Every compiled lookup must be a source-order subsequence of
   the predicate that holds each clause whose renamed head unifies with
   the call, and the goal-rooted and register-rooted lookups must return
   the same list.  The interpreted lookup must return exactly the
   clauses whose first argument is compatible with the call's, in
   source order (the simulators' cycle counts depend on it): before
   freeze, after it, and through a session overlay that asserta's,
   assertz's and retracts clauses. *)
let random_term rng depth =
  let leaf () =
    match Random.State.int rng 10 with
    | 0 -> Term.atom "a"
    | 1 -> Term.atom "b"
    | 2 -> Term.nil
    | 3 -> Term.Int 0
    | 4 -> Term.Int (-1)
    | 5 -> Term.Int max_int
    | 6 -> Term.Int min_int
    | 7 -> Term.Int 1
    | _ -> Term.var ()
  in
  let rec go d =
    if d = 0 then leaf ()
    else
      match Random.State.int rng 5 with
      | 0 | 1 -> leaf ()
      | 2 -> Term.app "f" [ go (d - 1) ]
      | 3 -> Term.app "f" [ go (d - 1); go (d - 1) ]
      | _ -> Term.app "g" [ go (d - 1) ]
  in
  go depth

(* Whether clause [c]'s first argument can match [call]'s, written from
   the terms alone: a variable on either side, the same integer or
   atom, or structures of one name and arity. *)
let first_arg_compatible call c =
  let arg1 t =
    match Term.deref t with
    | Term.Struct (_, args) -> Term.deref args.(0)
    | _ -> Alcotest.fail "k/3 expected"
  in
  match (arg1 c.Clause.head, arg1 call) with
  | Term.Var _, _ | _, Term.Var _ -> true
  | Term.Int a, Term.Int b -> a = b
  | Term.Atom a, Term.Atom b -> Ace_term.Symbol.equal a b
  | Term.Struct (f, xs), Term.Struct (g, ys) ->
    Ace_term.Symbol.equal f g && Array.length xs = Array.length ys
  | _ -> false

let dispatch_complete_prop =
  Test_util.qcheck ~count:300 "dispatch: complete and in source order"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let k3 () =
        Term.app "k" (List.init 3 (fun _ -> random_term rng 3))
      in
      let db = Database.create () in
      for _ = 1 to 2 + Random.State.int rng 24 do
        Database.assertz db (Clause.of_term (k3 ()))
      done;
      let calls = List.init 30 (fun _ -> k3 ()) in
      let interpreted_exact db =
        let all = Database.clauses_of db "k" 3 in
        List.for_all
          (fun call ->
            match Database.lookup db call with
            | Some found ->
              List.equal ( == ) found
                (List.filter (first_arg_compatible call) all)
            | None -> false)
          calls
      in
      let unfrozen = interpreted_exact db in
      Database.freeze db;
      let frozen = interpreted_exact db in
      let all = Database.clauses_of db "k" 3 in
      let rec subsequence xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' ->
          if x == y then subsequence xs' ys' else subsequence xs ys'
      in
      let compiled =
        List.for_all
          (fun call ->
            let args =
              match call with Term.Struct (_, a) -> a | _ -> assert false
            in
            (* a register file may be longer than the call *)
            let regs = Array.append args [| Term.atom "junk"; Term.Int 7 |] in
            let sym = Ace_term.Symbol.intern "k" in
            match
              ( Database.lookup_code db call,
                Database.lookup_code_args db sym 3 regs )
            with
            | Some found, Some found_regs ->
              let matching c =
                Ace_term.Unify.matches (fst (Clause.rename_head c)) call
              in
              List.equal ( == ) found found_regs
              && subsequence found all
              && List.for_all
                   (fun c -> (not (matching c)) || List.memq c found)
                   all
            | _ -> false)
          calls
      in
      let s = Database.overlay db in
      for _ = 1 to 1 + Random.State.int rng 6 do
        let c = Clause.of_term (k3 ()) in
        if Random.State.bool rng then Database.asserta s c
        else Database.assertz s c
      done;
      ignore (Database.retract s (Clause.of_term (k3 ())));
      let overlaid = interpreted_exact s in
      Database.freeze s;
      unfrozen && frozen && compiled && overlaid && interpreted_exact s)

(* Keys that collide once shifted into a hash code (0 and min_int, -1
   and max_int), an atom, and same-named functors of different arities
   each keep a case of their own: a ground call selects exactly its one
   fact. *)
let test_dispatch_keys_apart () =
  let keys =
    [ Term.Int 0; Term.Int (-1); Term.Int max_int; Term.Int min_int;
      Term.Int 1; Term.atom "a"; Term.nil; Term.app "f" [ Term.atom "a" ];
      Term.app "f" [ Term.atom "a"; Term.atom "a" ] ]
  in
  let db = Database.create () in
  List.iter
    (fun k -> Database.assertz db (Clause.of_term (Term.app "e" [ k ])))
    keys;
  Database.freeze db;
  List.iter2
    (fun k c ->
      let call = Term.app "e" [ k ] in
      match Database.lookup_code db call with
      | Some [ c' ] when c' == c -> ()
      | Some cs ->
        Alcotest.failf "%s selects %d clauses, not its own fact"
          (Ace_term.Pp.to_string call) (List.length cs)
      | None -> Alcotest.fail "e/1 undefined")
    keys
    (Database.clauses_of db "e" 1)

(* ------------------------------------------------------------------ *)
(* Mutation hook                                                       *)
(* ------------------------------------------------------------------ *)

let test_mutation_hook () =
  let c = clause_of "p(a, 42)." "p" 2 0 in
  let clean = Code.listing (Code.compile c) in
  Fun.protect
    ~finally:(fun () -> Code.mutation := None)
    (fun () ->
      Code.mutation := Some 0;
      let mutated = Code.listing (Code.compile c) in
      Alcotest.(check bool)
        "seeded mutation rewrites an instruction" true (clean <> mutated));
  Alcotest.(check string)
    "clearing the hook restores clean compilation" clean
    (Code.listing (Code.compile c))

let test_mutation_body () =
  (* the mutation point ordering visits body steps before head
     instructions, so seed 0 must rewrite body code while leaving the
     head untouched — this is what keeps the differential checker's
     must-fail smoke sensitive to the body compiler *)
  let c = clause_of "r(X, Y) :- q(X, Z), t(Z, Y)." "r" 2 0 in
  let clean = Code.listing (Code.compile c) in
  let head_lines s =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 4 && l.[2] = 'g' (* get_* *))
  in
  Fun.protect
    ~finally:(fun () -> Code.mutation := None)
    (fun () ->
      Code.mutation := Some 0;
      let mutated = Code.listing (Code.compile c) in
      Alcotest.(check bool)
        "seed 0 rewrites a body step" true (clean <> mutated);
      Alcotest.(check (list string))
        "head instructions untouched" (head_lines clean) (head_lines mutated))

(* ------------------------------------------------------------------ *)
(* Last-call optimization                                              *)
(* ------------------------------------------------------------------ *)

let test_lco_constant_space () =
  (* a determinate recursion whose body is builtins + a final call runs
     entirely on the reusable scratch frame: tens of thousands of
     iterations must allocate zero environments (and, incidentally, no
     choice points until the base case) *)
  let program = "count(0). count(N) :- N > 0, M is N - 1, count(M)." in
  let r =
    Engine.solve_program Engine.Sequential compiled ~program
      ~query:"count(20000) ."
  in
  Alcotest.(check int) "one solution" 1 (List.length r.Engine.solutions);
  Alcotest.(check int)
    "no environment allocated over 20k iterations" 0
    r.Engine.stats.Ace_machine.Stats.env_allocs

(* ------------------------------------------------------------------ *)
(* One execution path per engine                                      *)
(* ------------------------------------------------------------------ *)

(* [Config.compile] selects the sequential engine's mode only: the
   simulators always interpret (no compiled instruction ever runs) and
   the domains engine always runs compiled code.  Only [Par_or] runs
   without abstract cycles. *)
let test_one_path_per_engine () =
  let program = "len([], 0). len([_|T], N) :- len(T, M), N is M + 1." in
  let query = "len([a, b, c, d], N)" in
  List.iter
    (fun (kind, compile, runs_code) ->
      let name =
        Printf.sprintf "%s with compile = %b" (Engine.kind_to_string kind)
          compile
      in
      let r =
        Engine.solve_program kind
          { (Config.all_optimizations ~agents:2 ()) with Config.compile }
          ~program ~query
      in
      Alcotest.(check (list string)) (name ^ ": answer") [ "len([a,b,c,d],4)" ]
        (List.map Ace_term.Pp.to_string r.Engine.solutions);
      Alcotest.(check bool) (name ^ ": runs compiled code") runs_code
        (r.Engine.stats.Ace_machine.Stats.code_instrs > 0);
      Alcotest.(check bool) (name ^ ": charges cycles") (kind <> Engine.Par_or)
        (Option.is_some r.Engine.cycles))
    [ (Engine.Sequential, false, false); (Engine.Sequential, true, true);
      (Engine.And_parallel, true, false); (Engine.Or_parallel, true, false);
      (Engine.Par_or, false, true) ]

(* ------------------------------------------------------------------ *)
(* Compiled = interpreted (property)                                   *)
(* ------------------------------------------------------------------ *)

let equivalence_prop =
  Test_util.qcheck ~count:100 "compiled = interpreted (seq, alpha-canonical)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = Gen_prog.generate ~seed in
      let program = Gen_prog.program_text p in
      let query = Gen_prog.query_text p in
      let run config =
        (Engine.solve_program Engine.Sequential config ~program ~query)
          .Engine.solutions
      in
      Canon.equal (run Config.default) (run compiled))

let suite =
  [ Alcotest.test_case "listing: fact" `Quick test_listing_fact;
    Alcotest.test_case "listing: ground argument" `Quick test_listing_ground;
    Alcotest.test_case "listing: deep structure" `Quick test_listing_deep;
    Alcotest.test_case "listing: arithmetic body" `Quick test_listing_arith;
    Alcotest.test_case "listing: chained calls" `Quick test_listing_chain;
    Alcotest.test_case "dispatch: candidate counts" `Quick test_dispatch_counts;
    Alcotest.test_case "dispatch: solutions unchanged" `Quick
      test_dispatch_solutions;
    dispatch_complete_prop;
    Alcotest.test_case "dispatch: colliding keys stay apart" `Quick
      test_dispatch_keys_apart;
    Alcotest.test_case "mutation hook" `Quick test_mutation_hook;
    Alcotest.test_case "mutation: body code" `Quick test_mutation_body;
    Alcotest.test_case "lco: constant environment space" `Quick
      test_lco_constant_space;
    Alcotest.test_case "one execution path per engine" `Quick
      test_one_path_per_engine;
    equivalence_prop ]
