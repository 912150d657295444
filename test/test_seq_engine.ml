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
    prop_append_splits ]
