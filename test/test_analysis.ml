(* Determinacy and independence analyses. *)

module Term = Ace_term.Term
module Clause = Ace_lang.Clause
module Program = Ace_lang.Program
module Determinacy = Ace_analysis.Determinacy
module Independence = Ace_analysis.Independence
open Test_util

let det_program =
  {|
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
len([], 0).
len([_|T], N) :- len(T, M), N is M + 1.
calls_member(L, X) :- member(X, L).
double([], []).
double([H|T], [H2|T2]) :- H2 is H * 2, double(T, T2).
mutual_a([], x).
mutual_a([_|T], R) :- mutual_b(T, R).
mutual_b([], y).
mutual_b([_|T], R) :- mutual_a(T, R).
|}

let test_determinacy () =
  let p = Program.consult_string det_program in
  let det = Determinacy.analyze (Program.db p) in
  let is_det name arity = Determinacy.is_determinate det name arity in
  Alcotest.(check bool) "app det" true (is_det "app" 3);
  Alcotest.(check bool) "len det" true (is_det "len" 2);
  Alcotest.(check bool) "double det" true (is_det "double" 2);
  Alcotest.(check bool) "member nondet" false (is_det "member" 2);
  Alcotest.(check bool) "caller of nondet is nondet" false
    (is_det "calls_member" 2);
  Alcotest.(check bool) "mutual recursion det" true
    (is_det "mutual_a" 2 && is_det "mutual_b" 2)

(* Soundness against the runtime: analysis-determinate predicates never
   allocate a choice point when run. *)
let test_determinacy_sound () =
  let p = Program.consult_string det_program in
  let db = Program.db p in
  let det = Determinacy.analyze db in
  Alcotest.(check bool) "det analysis nonempty" true
    (Determinacy.to_list det <> []);
  let q = Program.parse_query "app([1,2,3], [4], R), len(R, N), double(R, D)" in
  let r =
    Ace_core.Engine.solve Ace_core.Engine.Sequential Config.default db
      q.Program.goal
  in
  Alcotest.(check int) "no choice points at runtime" 0
    r.Ace_core.Engine.stats.Ace_machine.Stats.cp_allocs

let test_mode_parsing () =
  let modes = Independence.no_modes () in
  Alcotest.(check bool) "mode directive accepted" true
    (Independence.add_mode_directive modes (term "mode(f(+, -, ?))"));
  Alcotest.(check bool) "non-mode rejected" false
    (Independence.add_mode_directive modes (term "dynamic(g/2)"))

let test_groundness_propagation () =
  let modes =
    Independence.modes_of_directives [ term "mode(p(+, -))" ]
  in
  let x = Term.fresh_var () and y = Term.fresh_var () in
  let ground0 = Independence.Var_set.of_list [ x.Term.vid ] in
  (* after p(X, Y) with mode p(+,-) and X ground, Y is ground *)
  let after =
    Independence.grounded_after modes ground0
      (Term.app "p" [ Term.Var x; Term.Var y ])
  in
  Alcotest.(check bool) "output grounded" true
    (Independence.Var_set.mem y.Term.vid after);
  (* is/2 grounds its left side when the right is ground *)
  let z = Term.fresh_var () in
  let after2 =
    Independence.grounded_after modes after
      (Term.app "is" [ Term.Var z; Term.app "+" [ Term.Var x; Term.int 1 ] ])
  in
  Alcotest.(check bool) "is grounds lhs" true
    (Independence.Var_set.mem z.Term.vid after2)

let test_annotation () =
  let program =
    Program.consult_string
      {|
:- mode(work(+, -)).
:- mode(combine(+, +, -)).
p(X, Y, R) :- work(X, A), work(Y, B), combine(A, B, R).
q(X, R) :- work(X, A), work(A, B), combine(A, B, R).
|}
  in
  let db = Independence.annotate_program program in
  let body name =
    match Ace_lang.Database.clauses_of db name 3 @ Ace_lang.Database.clauses_of db name 2 with
    | [ c ] -> c.Clause.body
    | _ -> Alcotest.fail "expected one clause"
  in
  (* p: work(X,A) and work(Y,B) share nothing -> parallelised *)
  (match body "p" with
   | [ Clause.Par [ _; _ ]; Clause.Call _ ] -> ()
   | items ->
     Alcotest.failf "p not annotated as expected: %s"
       (Ace_term.Pp.to_string (Clause.term_of_body items)));
  (* q: the second work consumes A from the first -> stays sequential *)
  match body "q" with
  | [ Clause.Call _; Clause.Call _; Clause.Call _ ] -> ()
  | items ->
    Alcotest.failf "q should stay sequential: %s"
      (Ace_term.Pp.to_string (Clause.term_of_body items))

(* Annotated programs must still compute the same solutions on the
   and-parallel engine. *)
let test_annotation_preserves_semantics () =
  let source =
    {|
:- mode(sq(+, -)).
:- mode(cube(+, -)).
sq(X, Y) :- Y is X * X.
cube(X, Y) :- Y is X * X * X.
both(X, S, C) :- sq(X, S), cube(X, C).
main([], []).
main([X|Xs], [r(S, C)|Rs]) :- both(X, S, C), main(Xs, Rs).
|}
  in
  let program = Program.consult_string source in
  let annotated = Independence.annotate_program program in
  let q = Program.parse_query "main([1,2,3,4], R)" in
  let seq = Ace_core.Engine.solve Ace_core.Engine.Sequential Config.default
      (Program.db program) q.Program.goal in
  let par =
    Ace_core.Engine.solve Ace_core.Engine.And_parallel
      { Config.default with agents = 3 } annotated q.Program.goal
  in
  check_same_solutions "annotated program agrees"
    (List.map Ace_term.Pp.to_string seq.Ace_core.Engine.solutions)
    (List.map Ace_term.Pp.to_string par.Ace_core.Engine.solutions)

(* The hand annotations of every and-parallel benchmark pass the
   independence checker. *)
let test_benchmark_annotations_valid () =
  List.iter
    (fun (b : Ace_benchmarks.Programs.t) ->
      if b.Ace_benchmarks.Programs.kind = Ace_core.Engine.And_parallel then begin
        let source = b.Ace_benchmarks.Programs.program b.Ace_benchmarks.Programs.small_size in
        let program = Program.consult_string source in
        let modes =
          Independence.modes_of_directives (Program.directives program)
        in
        let db = Program.db program in
        List.iter
          (fun (name, arity) ->
            List.iter
              (fun clause ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s/%d annotation valid"
                     b.Ace_benchmarks.Programs.name name arity)
                  true
                  (Independence.check_annotation modes
                     ~head_ground:(Independence.head_ground_of modes clause.Clause.head)
                     clause.Clause.body))
              (Ace_lang.Database.clauses_of db name arity))
          (Ace_lang.Database.predicates db)
      end)
    Ace_benchmarks.Programs.all

let suite =
  [ Alcotest.test_case "determinacy analysis" `Quick test_determinacy;
    Alcotest.test_case "determinacy soundness" `Quick test_determinacy_sound;
    Alcotest.test_case "mode parsing" `Quick test_mode_parsing;
    Alcotest.test_case "groundness propagation" `Quick test_groundness_propagation;
    Alcotest.test_case "annotation" `Quick test_annotation;
    Alcotest.test_case "annotation preserves semantics" `Quick
      test_annotation_preserves_semantics;
    Alcotest.test_case "benchmark annotations valid" `Quick
      test_benchmark_annotations_valid ]
