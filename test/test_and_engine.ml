(* And-parallel engine: semantics against the sequential engine, plus the
   structural invariants of LPCO, SPO and PDO. *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Stats = Ace_machine.Stats
open Test_util

let programs_with_queries =
  (* (program, query) pairs covering determinate work, local
     nondeterminism, cross products, inside failure and outside
     backtracking *)
  let base =
    {|
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
double(X, Y) :- Y is X * 2.
pmap([], []).
pmap([H|T], [H2|T2]) :- double(H, H2) & pmap(T, T2).
pair(X, Y) :- member(X, [1,2,3]) & member(Y, [a,b]).
tree(leaf).
sumt(leaf, 0).
sumt(node(L, V, R), S) :- sumt(L, SL) & sumt(R, SR), S is SL + SR + V.
badmap([], []).
badmap([H|T], [H2|T2]) :- bad(H, H2) & badmap(T, T2).
bad(X, Y) :- X < 3, Y is X * 10.
gen_test(L, X, Y) :- member(X, L), pair(A, B), Y = r(A, B, X).
|}
  in
  [ (base, "pmap([1,2,3,4,5], R)");
    (base, "pair(X, Y)");
    (base, "sumt(node(node(leaf,1,leaf),2,node(leaf,3,node(leaf,4,leaf))), S)");
    (base, "badmap([1,2], R)");
    (base, "badmap([1,2,5,1], R)"); (* inside failure: 5 fails the map *)
    (base, "member(X, [1,2]), pair(A, B)");
    (base, "pmap([1,2], R), member(X, R)");
    (base, "pair(X, Y), X > 1, Y = b") ]

let configs =
  [ { Config.default with agents = 1 };
    { Config.default with agents = 2 };
    { Config.default with agents = 4 };
    { Config.default with agents = 3; lpco = true };
    { Config.default with agents = 3; spo = true };
    { Config.default with agents = 3; pdo = true };
    Config.all_optimizations ~agents:5 () ]

let test_agrees_with_sequential () =
  List.iter
    (fun (program, query) ->
      let reference = solutions program query in
      List.iter
        (fun config ->
          let got = solutions ~config ~kind:Engine.And_parallel program query in
          check_same_solutions
            (Printf.sprintf "%s [%s]" query
               (Format.asprintf "%a" Config.pp config))
            reference got)
        configs)
    programs_with_queries

let test_deterministic_repeatable () =
  let program, query = List.nth programs_with_queries 1 in
  let config = { Config.default with agents = 4 } in
  let run () =
    let r = Engine.solve_program Engine.And_parallel config ~program ~query in
    (cycles r, List.map Ace_term.Pp.to_string r.Engine.solutions)
  in
  let t1, s1 = run () and t2, s2 = run () in
  Alcotest.(check int) "same simulated time" t1 t2;
  Alcotest.(check (list string)) "same solutions in same order" s1 s2

let run_bench ?(config = Config.default) name size =
  let b = Ace_benchmarks.Programs.find name in
  Engine.solve_program Engine.And_parallel config ~program:(b.Ace_benchmarks.Programs.program size)
    ~query:(b.Ace_benchmarks.Programs.query size)

let test_lpco_flattens () =
  let unopt = run_bench ~config:{ Config.default with agents = 2 } "map2" 10 in
  let opt =
    run_bench ~config:{ Config.default with agents = 2; lpco = true } "map2" 10
  in
  Alcotest.(check bool) "frames collapse" true
    (opt.Engine.stats.Stats.frames < unopt.Engine.stats.Stats.frames);
  Alcotest.(check int) "one frame with LPCO" 1 opt.Engine.stats.Stats.frames;
  Alcotest.(check bool) "nesting depth 1 with LPCO" true
    (opt.Engine.stats.Stats.max_frame_nesting = 1);
  Alcotest.(check bool) "nesting deep without" true
    (unopt.Engine.stats.Stats.max_frame_nesting > 5);
  Alcotest.(check bool) "lpco hits counted" true
    (opt.Engine.stats.Stats.lpco_hits > 0);
  Alcotest.(check bool) "stack words reduced" true
    (opt.Engine.stats.Stats.stack_words < unopt.Engine.stats.Stats.stack_words)

let test_spo_avoids_markers () =
  let config = { Config.default with agents = 3 } in
  let unopt = run_bench ~config "matrix" 4 in
  let opt = run_bench ~config:{ config with spo = true } "matrix" 4 in
  let markers r =
    r.Engine.stats.Stats.input_markers + r.Engine.stats.Stats.end_markers
  in
  Alcotest.(check bool) "markers reduced" true (markers opt < markers unopt);
  Alcotest.(check bool) "spo hits counted" true
    (opt.Engine.stats.Stats.spo_hits > 0);
  Alcotest.(check bool) "not slower" true (cycles opt <= cycles unopt)

let test_pdo_contiguity () =
  (* at one agent every next slot is sequentially contiguous, so PDO
     should fire throughout *)
  let config = { Config.default with agents = 1 } in
  let unopt = run_bench ~config "quick_sort" 24 in
  let opt = run_bench ~config:{ config with pdo = true } "quick_sort" 24 in
  Alcotest.(check bool) "pdo hits at P=1" true
    (opt.Engine.stats.Stats.pdo_hits > 0);
  Alcotest.(check bool) "markers avoided" true
    (opt.Engine.stats.Stats.markers_avoided > 0);
  Alcotest.(check bool) "faster" true (cycles opt < cycles unopt)

let test_parallel_speedup () =
  let t1 = cycles (run_bench "map2" 64) in
  let t4 =
    cycles (run_bench ~config:{ Config.default with agents = 4 } "map2" 64)
  in
  Alcotest.(check bool) "speedup at 4 agents" true
    (float_of_int t1 /. float_of_int t4 > 1.5)

let test_inside_failure_kills () =
  let program =
    {|
ok(X, Y) :- Y is X + 1.
reject(3, _) :- fail.
reject(X, Y) :- X =\= 3, Y is X.
pm([], []).
pm([H|T], [V|Vs]) :- reject(H, V) & pm(T, Vs).
|}
  in
  let config = { Config.default with agents = 4 } in
  let r =
    Engine.solve_program Engine.And_parallel config ~program
      ~query:"pm([1,2,3,4,5,6], R)"
  in
  Alcotest.(check int) "no solutions" 0 (List.length r.Engine.solutions);
  let seq = solutions program "pm([1,2,3,4,5,6], R)" in
  Alcotest.(check int) "sequential agrees" 0 (List.length seq)

let test_max_solutions () =
  let program = "member(X, [X|_]).\nmember(X, [_|T]) :- member(X, T).\np(X, Y) :- member(X, [1,2,3]) & member(Y, [a,b,c])." in
  let config = { Config.default with agents = 2; max_solutions = Some 4 } in
  let r = Engine.solve_program Engine.And_parallel config ~program ~query:"p(X, Y)" in
  Alcotest.(check int) "stops at limit" 4 (List.length r.Engine.solutions)

let test_stats_sanity () =
  let r = run_bench ~config:{ Config.default with agents = 3 } "hanoi" 6 in
  let s = r.Engine.stats in
  Alcotest.(check bool) "slots >= frames" true (s.Stats.slots >= s.Stats.frames);
  Alcotest.(check bool) "some steals at 3 agents" true (s.Stats.steals > 0);
  Alcotest.(check bool) "trail balanced at completion" true
    (s.Stats.untrails <= s.Stats.trail_pushes);
  Alcotest.(check bool) "positive simulated time" true (cycles r > 0)

let test_granularity_control () =
  (* on a list recursion the size estimate shrinks down the tree: the top
     forks, the fine-grained bottom runs sequentially *)
  let config = { Config.default with agents = 1 } in
  let plain = run_bench ~config "quick_sort" 60 in
  let gc = run_bench ~config:{ config with seq_threshold = 30 } "quick_sort" 60 in
  Alcotest.(check bool) "sequentialized parcalls counted" true
    (gc.Engine.stats.Stats.seq_hits > 0);
  Alcotest.(check bool) "fewer frames" true
    (gc.Engine.stats.Stats.frames < plain.Engine.stats.Stats.frames);
  Alcotest.(check bool) "but not zero frames" true (gc.Engine.stats.Stats.frames > 0);
  Alcotest.(check bool) "faster at one agent" true (cycles gc < cycles plain);
  check_same_solutions "solutions unchanged"
    (List.map Ace_term.Pp.to_string plain.Engine.solutions)
    (List.map Ace_term.Pp.to_string gc.Engine.solutions);
  (* parallelism is preserved at the top of the tree *)
  let gc4 =
    run_bench ~config:{ Config.default with agents = 4; seq_threshold = 30 }
      "quick_sort" 60
  in
  Alcotest.(check bool) "still parallel" true (cycles gc4 < cycles gc);
  (* integer-parameterized recursion (tak) has constant-size goals: the
     structural estimate cannot see depth, so the whole computation is
     sequentialized — documented limitation of size-based granularity
     control *)
  let tak_gc =
    run_bench ~config:{ config with seq_threshold = 24 } "takeuchi" 8
  in
  Alcotest.(check int) "tak fully sequentialized" 0 tak_gc.Engine.stats.Stats.frames

let test_unsupported_control () =
  let raises query =
    match
      Engine.solve_program Engine.And_parallel Config.default ~program:"" ~query
    with
    | exception Ace_core.Errors.Engine_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "cut rejected" true (raises "!");
  Alcotest.(check bool) "negation rejected" true (raises "\\+ fail");
  Alcotest.(check bool) "if-then-else rejected" true (raises "(true -> a = a ; a = b)")

(* property: and-engine and sequential engine agree on quicksort of random
   lists under every optimization set *)
let prop_qsort_agrees =
  let b = Ace_benchmarks.Programs.find "quick_sort" in
  let program = b.Ace_benchmarks.Programs.program 0 in
  qcheck ~count:40 "quicksort agrees across engines"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 12) (int_range 0 99))
        (int_range 1 6))
    (fun (xs, agents) ->
      let query =
        Printf.sprintf "qsort(%s, S)" (Ace_benchmarks.Gen.pp_int_list xs)
      in
      let reference = solutions program query in
      let opt =
        solutions
          ~config:(Config.all_optimizations ~agents ())
          ~kind:Engine.And_parallel program query
      in
      sorted_strings reference = sorted_strings opt)

let suite =
  [ Alcotest.test_case "agrees with sequential" `Quick test_agrees_with_sequential;
    Alcotest.test_case "deterministic and repeatable" `Quick
      test_deterministic_repeatable;
    Alcotest.test_case "LPCO flattens frames" `Quick test_lpco_flattens;
    Alcotest.test_case "SPO avoids markers" `Quick test_spo_avoids_markers;
    Alcotest.test_case "PDO contiguity" `Quick test_pdo_contiguity;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "inside failure kills parcall" `Quick
      test_inside_failure_kills;
    Alcotest.test_case "max_solutions" `Quick test_max_solutions;
    Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
    Alcotest.test_case "granularity control" `Quick test_granularity_control;
    Alcotest.test_case "unsupported control rejected" `Quick
      test_unsupported_control;
    prop_qsort_agrees ]
