(* Sequential engine: standard Prolog semantics. *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
open Test_util

let lists =
  {|
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
|}

let test_append_modes () =
  Alcotest.(check (list string)) "forward" [ "app([1,2],[3],[1,2,3])" ]
    (solutions lists "app([1,2], [3], R)");
  Alcotest.(check int) "backward enumerates splits" 4
    (List.length (solutions lists "app(X, Y, [1,2,3])"));
  Alcotest.(check (list string)) "first split"
    [ "app([],[1,2,3],[1,2,3])" ]
    [ List.hd (solutions lists "app(X, Y, [1,2,3])") ]

let test_member_order () =
  Alcotest.(check (list string)) "solution order"
    [ "member(1,[1,2,3])"; "member(2,[1,2,3])"; "member(3,[1,2,3])" ]
    (solutions lists "member(X, [1,2,3])")

let test_nrev () =
  Alcotest.(check (list string)) "nrev"
    [ "nrev([1,2,3,4],[4,3,2,1])" ]
    (solutions lists "nrev([1,2,3,4], R)")

let test_conjunction_backtracking () =
  Alcotest.(check int) "cross product" 6
    (List.length (solutions lists "member(X, [1,2]), member(Y, [a,b,c])"));
  Alcotest.(check (list string)) "constrained"
    [ "member(2,[1,2,3]), 2 > 1" ]
    [ List.hd (solutions lists "member(X, [1,2,3]), X > 1") ]

let test_cut () =
  let program = lists ^ "first(X, L) :- member(X, L), !.\nonce_p(X) :- member(X, [a,b]), !." in
  Alcotest.(check int) "cut prunes" 1
    (List.length (solutions program "first(X, [5,6,7])"));
  Alcotest.(check (list string)) "cut keeps first" [ "once_p(a)" ]
    (solutions program "once_p(X)");
  (* cut is local to the clause *)
  let program2 = lists ^ "p(X) :- q(X).\nq(X) :- member(X, [1,2]), !.\nq(9)." in
  Alcotest.(check (list string)) "cut in callee doesn't cut caller"
    [ "p(1)" ]
    (solutions program2 "p(X)")

let test_negation () =
  Alcotest.(check int) "\\+ succeeds" 1
    (List.length (solutions lists "\\+ member(9, [1,2,3])"));
  Alcotest.(check int) "\\+ fails" 0
    (List.length (solutions lists "\\+ member(2, [1,2,3])"));
  (* bindings made inside \+ are undone *)
  Alcotest.(check (list string)) "no bindings leak"
    [ "\\+ (2 = 1, fail), 2 = 2" ]
    (solutions "" "\\+ (X = 1, fail), X = 2")

let test_if_then_else () =
  Alcotest.(check (list string)) "then branch" [ "1 < 2 -> a = a ; a = b" ]
    (solutions "" "(1 < 2 -> a = a ; a = b)");
  Alcotest.(check int) "else branch" 1
    (List.length (solutions "" "(2 < 1 -> fail ; true)"));
  (* the condition is committed to its first solution *)
  Alcotest.(check int) "condition commits" 1
    (List.length (solutions lists "(member(X, [1,2,3]) -> X = 1 ; true)"));
  Alcotest.(check int) "bare if-then fails without else" 0
    (List.length (solutions "" "(fail -> true)"))

let test_disjunction () =
  Alcotest.(check int) "both branches" 2
    (List.length (solutions "" "(X = 1 ; X = 2)"));
  Alcotest.(check (list string)) "order"
    [ "1 = 1 ; 1 = 2"; "2 = 1 ; 2 = 2" ]
    (solutions "" "(X = 1 ; X = 2)")

let test_call () =
  Alcotest.(check int) "call/1" 2
    (List.length (solutions lists "call(member(X, [1,2]))"))

let test_par_runs_sequentially () =
  Alcotest.(check int) "& as conjunction" 4
    (List.length (solutions lists "member(X, [1,2]) & member(Y, [a,b])"))

(* The solution limit stops the generator after a prefix of the full
   enumeration order. *)
let test_limit_and_generator () =
  let query = "member(X, [1,2,3,4,5])" in
  let first n =
    solutions
      ~config:{ Ace_machine.Config.default with max_solutions = Some n }
      lists query
  in
  let all = solutions lists query in
  Alcotest.(check int) "five in all" 5 (List.length all);
  Alcotest.(check (list string)) "first two"
    (List.filteri (fun i _ -> i < 2) all)
    (first 2);
  Alcotest.(check (list string)) "limit zero runs nothing" [] (first 0);
  Alcotest.(check (list string)) "limit past the end" all (first 9)

let test_time_monotone () =
  let p = Ace_lang.Program.consult_string lists in
  let run n =
    let q =
      Ace_lang.Program.parse_query
        (Printf.sprintf "nrev(%s, R)"
           (Ace_benchmarks.Gen.pp_int_list (List.init n (fun i -> i))))
    in
    let r =
      Ace_core.Engine.solve Ace_core.Engine.Sequential
        Ace_machine.Config.default (Ace_lang.Program.db p)
        q.Ace_lang.Program.goal
    in
    Option.get r.Ace_core.Engine.cycles
  in
  Alcotest.(check bool) "bigger input costs more" true (run 16 > run 8)

(* Conditional trailing: the compiled machine (seq/c) trails a binding
   only when a choice point, or the mark of a condition or negation, can
   undo it.  Each case binds a variable that one site's watermark must
   cover, on seq/c and on interpreted seq (whose trail records every
   binding). *)
let check_modes msg expected program query =
  List.iter
    (fun compile ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s (%s)" msg (if compile then "seq/c" else "seq"))
        expected
        (solutions ~config:{ Config.default with Config.compile } program query))
    [ false; true ]

let test_watermark_scan () =
  let program =
    "g(a) :- fail.\ng(b).\nq(X) :- g(Y), X = Y.\n\
     h(W) :- k(W, V), V = c.\nk(a, b).\nk(b, c).\ndeep(X) :- h(Y), Y = X.\n"
  in
  (* the first candidate binds the caller's variable, then fails *)
  check_modes "scan retry" [ "q(b)" ] program "q(X)";
  (* the scan's choice point undoes the bindings of older variables *)
  check_modes "nested scan" [ "deep(b)" ] program "deep(X)"

let test_watermark_neq () =
  check_modes "\\= undoes a partial unification" [ "neq(d), d = d" ]
    "neq(Z) :- f(Z, b) \\= f(a, c).\n" "neq(Z), Z = d"

let test_watermark_naf () =
  check_modes "\\+" [ "naf(b)" ] "naf(X) :- \\+ (X = a, fail), X = b.\n"
    "naf(X)"

let test_watermark_ite () =
  check_modes "if-then-else" [ "ite(b)" ]
    "ite(X) :- ( X = a, fail -> true ; X = b ).\n" "ite(X)"

let test_watermark_disj () =
  check_modes "disjunction" [ "disj(b)" ]
    "disj(X) :- ( X = a, fail ; X = b ).\n" "disj(X)"

(* [first/2]'s cut pops its own choice point; [Z] is then bound under
   the watermark of [p/1]'s, which must undo it for [X = 2]. *)
let test_watermark_cut () =
  check_modes "cut" [ "cutt(2,c)" ]
    "p(1).\np(2).\nr(1, a).\nr(1, b).\nr(2, c).\nr(2, d).\n\
     first(X, Y) :- r(X, Y), !.\n\
     cutt(X, Z) :- p(X), first(X, Y), Z = Y, X = 2.\n"
    "cutt(X, Z)"

(* A complete table's answers are read as pseudo-fact clauses. *)
let test_watermark_table () =
  check_modes "complete table read" [ "tq(b)" ]
    ":- table(tp/1).\ntp(a).\ntp(b).\ntq(X) :- tp(Y), X = Y, X = b.\n"
    "tq(X)"

(* A determinate loop pushes no choice point, so seq/c trails none of
   its 20,000 steps' bindings, nor any of the determinate benchmarks';
   the interpreter trails every binding, and its counts and cycles are
   pinned (the paper's cost model charges them). *)
let test_watermark_counters () =
  let module Stats = Ace_machine.Stats in
  let module Programs = Ace_benchmarks.Programs in
  let run compile program query =
    let config = { Config.default with Config.compile } in
    let r = Engine.solve_program Engine.Sequential config ~program ~query in
    Alcotest.(check int) "one solution" 1 (List.length r.Engine.solutions);
    r
  in
  let loop =
    "loop(N, R) :- compare(O, N, 0), step(O, N, R).\n\
     step(>, N, R) :- M is N - 1, loop(M, R).\n\
     step(=, _, done).\n"
  in
  let c = run true loop "loop(20000, R)" in
  Alcotest.(check int) "seq/c loop trail pushes" 0
    c.Engine.stats.Stats.trail_pushes;
  let i = run false loop "loop(20000, R)" in
  Alcotest.(check int) "seq loop trail pushes" 120_005
    i.Engine.stats.Stats.trail_pushes;
  Alcotest.(check int) "seq loop cycles" 760_030 (cycles i);
  List.iter
    (fun name ->
      let b = Programs.find name in
      let n = b.Programs.small_size in
      let r = run true (b.Programs.program n) (b.Programs.query n) in
      Alcotest.(check int) (name ^ " seq/c trail pushes") 0
        r.Engine.stats.Stats.trail_pushes)
    [ "pderiv"; "matrix"; "hanoi"; "takeuchi"; "bt_cluster"; "quick_sort" ]

(* property: engine agrees with a reference OCaml implementation of
   append splits *)
let prop_append_splits =
  qcheck ~count:60 "append enumerates exactly the splits"
    QCheck2.Gen.(list_size (int_range 0 6) (int_range 0 9))
    (fun xs ->
      let q =
        Printf.sprintf "app(X, Y, %s)" (Ace_benchmarks.Gen.pp_int_list xs)
      in
      List.length (solutions lists q) = List.length xs + 1)

let suite =
  [ Alcotest.test_case "append modes" `Quick test_append_modes;
    Alcotest.test_case "member order" `Quick test_member_order;
    Alcotest.test_case "nrev" `Quick test_nrev;
    Alcotest.test_case "conjunction backtracking" `Quick test_conjunction_backtracking;
    Alcotest.test_case "cut" `Quick test_cut;
    Alcotest.test_case "negation" `Quick test_negation;
    Alcotest.test_case "if-then-else" `Quick test_if_then_else;
    Alcotest.test_case "disjunction" `Quick test_disjunction;
    Alcotest.test_case "call/1" `Quick test_call;
    Alcotest.test_case "'&' sequential semantics" `Quick test_par_runs_sequentially;
    Alcotest.test_case "solution generator" `Quick test_limit_and_generator;
    Alcotest.test_case "time monotonicity" `Quick test_time_monotone;
    Alcotest.test_case "watermark: scan" `Quick test_watermark_scan;
    Alcotest.test_case "watermark: \\=" `Quick test_watermark_neq;
    Alcotest.test_case "watermark: \\+" `Quick test_watermark_naf;
    Alcotest.test_case "watermark: if-then-else" `Quick test_watermark_ite;
    Alcotest.test_case "watermark: disjunction" `Quick test_watermark_disj;
    Alcotest.test_case "watermark: cut" `Quick test_watermark_cut;
    Alcotest.test_case "watermark: table" `Quick test_watermark_table;
    Alcotest.test_case "watermark: counters" `Quick test_watermark_counters;
    prop_append_splits ]
