(* Or-parallel engine: solution multisets against the sequential engine,
   MUSE-style stealing, and the LAO invariants. *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Stats = Ace_machine.Stats
open Test_util

let search_lib =
  {|
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).
pair(X, Y) :- member(X, [1,2,3,4]), member(Y, [a,b,c]).
perm([], []).
perm(L, [H|T]) :- sel(H, L, R), perm(R, T).
constrained(X, Y) :- member(X, [1,2,3,4,5]), member(Y, [1,2,3,4,5]), X + Y =:= 6.
nosol(X) :- member(X, [1,2,3]), X > 10.
deep(0).
deep(N) :- N > 0, member(_, [a,b]), N1 is N - 1, deep(N1).
|}

let or_queries =
  [ "member(X, [1,2,3,4,5,6,7,8])";
    "pair(X, Y)";
    "perm([1,2,3], P)";
    "constrained(X, Y)";
    "nosol(X)";
    "deep(4)" ]

let test_agrees_with_sequential () =
  List.iter
    (fun query ->
      let reference = solutions search_lib query in
      List.iter
        (fun (agents, lao) ->
          let config = { Config.default with agents; lao } in
          let got = solutions ~config ~kind:Engine.Or_parallel search_lib query in
          check_same_solutions
            (Printf.sprintf "%s (P=%d lao=%b)" query agents lao)
            reference got)
        [ (1, false); (1, true); (2, false); (3, true); (6, true); (6, false) ])
    or_queries

let test_single_worker_order_matches () =
  (* with one worker, exploration order is exactly sequential *)
  List.iter
    (fun query ->
      Alcotest.(check (list string)) ("order " ^ query)
        (solutions search_lib query)
        (solutions ~config:{ Config.default with agents = 1 }
           ~kind:Engine.Or_parallel search_lib query))
    or_queries

let run query config =
  Engine.solve_program Engine.Or_parallel config ~program:search_lib ~query

let test_lao_reuses_nodes () =
  let unopt = run "member(X, [1,2,3,4,5,6,7,8])" { Config.default with agents = 1 } in
  let opt =
    run "member(X, [1,2,3,4,5,6,7,8])" { Config.default with agents = 1; lao = true }
  in
  Alcotest.(check bool) "allocations collapse" true
    (opt.Engine.stats.Stats.cp_allocs < unopt.Engine.stats.Stats.cp_allocs);
  Alcotest.(check int) "single node with LAO" 1 opt.Engine.stats.Stats.cp_allocs;
  Alcotest.(check bool) "updates counted" true
    (opt.Engine.stats.Stats.cp_updates > 0);
  (* the MUSE characteristic: LAO is NOT a win at one worker *)
  Alcotest.(check bool) "no 1-worker speedup" true
    (cycles opt >= cycles unopt)

let test_lao_helps_sharing () =
  let q = "constrained(X, Y)" in
  let unopt = run q { Config.default with agents = 6 } in
  let opt = run q { Config.default with agents = 6; lao = true } in
  Alcotest.(check bool) "fewer scan visits" true
    (opt.Engine.stats.Stats.or_scans <= unopt.Engine.stats.Stats.or_scans);
  check_same_solutions "same answers"
    (List.map Ace_term.Pp.to_string unopt.Engine.solutions)
    (List.map Ace_term.Pp.to_string opt.Engine.solutions)

let test_stealing_happens () =
  let r = run "perm([1,2,3,4], P)" { Config.default with agents = 4 } in
  Alcotest.(check bool) "steals recorded" true (r.Engine.stats.Stats.steals > 0);
  Alcotest.(check bool) "copies recorded" true (r.Engine.stats.Stats.copies > 0);
  Alcotest.(check bool) "copied cells counted" true
    (r.Engine.stats.Stats.copied_cells > 0);
  Alcotest.(check int) "all 24 permutations" 24 (List.length r.Engine.solutions)

let test_parallel_speedup () =
  let q = "perm([1,2,3,4,5], P)" in
  let t1 = cycles (run q { Config.default with agents = 1 }) in
  let t8 = cycles (run q { Config.default with agents = 8 }) in
  Alcotest.(check bool) "or-parallel speedup" true
    (float_of_int t1 /. float_of_int t8 > 2.0)

let test_max_solutions () =
  let config = { Config.default with agents = 3; max_solutions = Some 5 } in
  let r = run "pair(X, Y)" config in
  Alcotest.(check int) "stops at limit" 5 (List.length r.Engine.solutions)

let test_empty_search () =
  let r = run "nosol(X)" { Config.default with agents = 4 } in
  Alcotest.(check int) "terminates with none" 0 (List.length r.Engine.solutions)

let test_deterministic_repeatable () =
  let config = { Config.default with agents = 5 } in
  let r1 = run "pair(X, Y)" config and r2 = run "pair(X, Y)" config in
  Alcotest.(check int) "same time" (cycles r1) (cycles r2);
  Alcotest.(check (list string)) "same discovery order"
    (List.map Ace_term.Pp.to_string r1.Engine.solutions)
    (List.map Ace_term.Pp.to_string r2.Engine.solutions)

(* property: counting solutions of random constrained pair searches *)
let prop_counts_match =
  qcheck ~count:40 "or-engine counts match sequential"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 6) (int_range 0 9))
        (list_size (int_range 0 6) (int_range 0 9))
        (int_range 1 6))
    (fun (xs, ys, agents) ->
      let query =
        Printf.sprintf "member(X, [0%s]), member(Y, [0%s]), X + Y =:= 7"
          (String.concat "" (List.map (Printf.sprintf ",%d") xs))
          (String.concat "" (List.map (Printf.sprintf ",%d") ys))
      in
      let reference = solutions search_lib query in
      let got =
        solutions ~config:{ Config.default with agents; lao = true }
          ~kind:Engine.Or_parallel search_lib query
      in
      List.length reference = List.length got)

let suite =
  [ Alcotest.test_case "agrees with sequential" `Quick test_agrees_with_sequential;
    Alcotest.test_case "1-worker order" `Quick test_single_worker_order_matches;
    Alcotest.test_case "LAO reuses nodes" `Quick test_lao_reuses_nodes;
    Alcotest.test_case "LAO helps sharing" `Quick test_lao_helps_sharing;
    Alcotest.test_case "stealing happens" `Quick test_stealing_happens;
    Alcotest.test_case "or-parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "max_solutions" `Quick test_max_solutions;
    Alcotest.test_case "empty search terminates" `Quick test_empty_search;
    Alcotest.test_case "deterministic" `Quick test_deterministic_repeatable;
    prop_counts_match ]
