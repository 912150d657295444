(* Hardware or-parallel engine (OCaml domains): solution-set equivalence
   with the sequential engine at 1, 2 and 4 domains, scheduling invariants,
   and the structural LAO. *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Stats = Ace_machine.Stats
module Programs = Ace_benchmarks.Programs

(* Solutions from different domains carry unrelated variable ids, so
   compare alpha-invariant renderings. *)
let canonical r = Ace_check.Canon.strings r.Engine.solutions
let canonical_set r = Ace_check.Canon.multiset r.Engine.solutions

let run ?(config = Config.default) ~program query =
  Engine.solve_program Engine.Par_or config ~program ~query

let seq ~program query =
  Engine.solve_program Engine.Sequential Config.default ~program ~query

let search_lib = Test_or_engine.search_lib

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
      let reference = canonical_set (seq ~program:search_lib query) in
      List.iter
        (fun agents ->
          let config = { Config.default with agents } in
          let got = canonical_set (run ~config ~program:search_lib query) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s (domains=%d)" query agents)
            reference got)
        [ 1; 2; 4 ])
    or_queries

let test_benchmarks_agree () =
  (* the or-parallel benchmark programs, at their test sizes *)
  List.iter
    (fun name ->
      let b = Programs.find name in
      let size = b.Programs.small_size in
      let program = b.Programs.program size and query = b.Programs.query size in
      let reference = canonical_set (seq ~program query) in
      List.iter
        (fun agents ->
          let got =
            canonical_set
              (run ~config:{ Config.default with agents } ~program query)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s (domains=%d)" name agents)
            reference got)
        [ 1; 2; 4 ])
    [ "queen1"; "members"; "puzzle"; "maps" ]

let test_single_domain_order_matches () =
  (* one domain never publishes, so exploration is exactly sequential *)
  List.iter
    (fun query ->
      Alcotest.(check (list string)) ("order " ^ query)
        (canonical (seq ~program:search_lib query))
        (canonical
           (run ~config:{ Config.default with agents = 1 } ~program:search_lib
              query)))
    or_queries

let test_single_domain_no_sharing () =
  let r =
    run ~config:{ Config.default with agents = 1 } ~program:search_lib
      "perm([1,2,3,4], P)"
  in
  Alcotest.(check int) "no steals" 0 r.Engine.stats.Stats.steals;
  Alcotest.(check int) "no copies" 0 r.Engine.stats.Stats.copies;
  Alcotest.(check int) "24 permutations" 24 (List.length r.Engine.solutions)

let test_lao_trust_pops () =
  (* every member/2 node's last alternative continues in place *)
  let r =
    run ~config:{ Config.default with agents = 1 } ~program:search_lib
      "member(X, [1,2,3,4,5,6,7,8])"
  in
  Alcotest.(check bool) "lao hits recorded" true
    (r.Engine.stats.Stats.lao_hits > 0)

let test_max_solutions () =
  let config = { Config.default with agents = 2; max_solutions = Some 5 } in
  let r = run ~config ~program:search_lib "pair(X, Y)" in
  Alcotest.(check int) "stops at limit" 5 (List.length r.Engine.solutions)

let test_empty_search_terminates () =
  List.iter
    (fun agents ->
      let r =
        run ~config:{ Config.default with agents } ~program:search_lib
          "nosol(X)"
      in
      Alcotest.(check int)
        (Printf.sprintf "no solutions (domains=%d)" agents)
        0
        (List.length r.Engine.solutions))
    [ 1; 4 ]

let test_undefined_predicate_raises () =
  Alcotest.(check bool) "existence error propagates across domains" true
    (List.for_all
       (fun agents ->
         match
           run ~config:{ Config.default with agents } ~program:"p :- q(1)." "p"
         with
         | _ -> false
         | exception Ace_core.Errors.Engine_error _ -> true)
       [ 1; 2 ])

let test_solution_count_in_stats () =
  let r = run ~config:{ Config.default with agents = 2 } ~program:search_lib
      "pair(X, Y)"
  in
  Alcotest.(check int) "stats.solutions matches list" 12
    r.Engine.stats.Stats.solutions;
  Alcotest.(check int) "twelve pairs" 12 (List.length r.Engine.solutions)

(* Every worker domain adds its own allocation to its shard; the run's
   total is their sum. *)
let test_alloc_per_domain () =
  let r = run ~config:{ Config.default with agents = 2 } ~program:search_lib
      "pair(X, Y)"
  in
  let shards = Ace_obs.Metrics.per_domain r.Engine.metrics in
  Array.iteri
    (fun i st ->
      Alcotest.(check bool) (Printf.sprintf "domain %d counted" i) true
        (st.Stats.minor_words > 0))
    shards;
  Alcotest.(check int) "total is the sum of the domains"
    (Array.fold_left (fun n st -> n + st.Stats.minor_words) 0 shards)
    r.Engine.stats.Stats.minor_words

let test_repeated_runs_stable () =
  (* parallel discovery order is nondeterministic; the set is not *)
  let config = { Config.default with agents = 4 } in
  let reference = canonical_set (seq ~program:search_lib "perm([1,2,3,4], P)") in
  for _ = 1 to 5 do
    Alcotest.(check (list string)) "set stable across runs" reference
      (canonical_set (run ~config ~program:search_lib "perm([1,2,3,4], P)"))
  done

let suite =
  [ Alcotest.test_case "agrees with sequential" `Quick test_agrees_with_sequential;
    Alcotest.test_case "benchmarks agree" `Quick test_benchmarks_agree;
    Alcotest.test_case "1-domain order" `Quick test_single_domain_order_matches;
    Alcotest.test_case "1-domain runs privately" `Quick test_single_domain_no_sharing;
    Alcotest.test_case "structural LAO" `Quick test_lao_trust_pops;
    Alcotest.test_case "max_solutions" `Quick test_max_solutions;
    Alcotest.test_case "empty search terminates" `Quick test_empty_search_terminates;
    Alcotest.test_case "undefined predicate" `Quick test_undefined_predicate_raises;
    Alcotest.test_case "stats solution count" `Quick test_solution_count_in_stats;
    Alcotest.test_case "allocation per domain" `Quick test_alloc_per_domain;
    Alcotest.test_case "repeated runs stable" `Quick test_repeated_runs_stable ]
