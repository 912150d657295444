(* SLG tabling: the shared answer table (lib/lang/table), the kernel's
   generator/consumer evaluation, and its integration with all four
   engines.  Covers subgoal-trie variant detection, answer
   deduplication, the golden incremental-completion order on a
   hand-built SCC chain, nested SCCs whose inner region reaches the
   outer one late, the fallback for consumers under control
   constructs on every engine, generators running in the calling
   agent's mode, the acceptance-criterion 200-node cyclic
   left-recursive reachability on every engine (the sequential one
   compiled and interpreted), chaos-schedule determinism of the
   suspend/resume interleaving, and concurrent 4-domain answer-table
   consistency. *)

module Term = Ace_term.Term
module Table = Ace_lang.Table
module Config = Ace_machine.Config
module Chaos = Ace_sched.Chaos
module Engine = Ace_core.Engine
module Canon = Ace_check.Canon

let solve ?table ?chaos ?(kind = Engine.Sequential) ?(config = Config.default)
    program query =
  let chaos = Option.value chaos ~default:Chaos.disabled in
  Engine.solve_program ~opts:{ Engine.default_opts with Engine.table; chaos }
    kind config ~program ~query

let multiset ?table ?chaos ?kind ?config program query =
  Canon.multiset (solve ?table ?chaos ?kind ?config program query).Engine.solutions

(* ------------------------------------------------------------------ *)
(* Subgoal trie: variant detection                                     *)
(* ------------------------------------------------------------------ *)

let test_variant_detection () =
  let t = Table.create () in
  let g1 = Term.app "p" [ Term.var (); Term.app "f" [ Term.atom "a"; Term.var () ] ] in
  let e1, created1 = Table.subgoal_entry t g1 in
  Alcotest.(check bool) "first call creates" true created1;
  (* same pattern, fresh variables: a variant — must share the entry *)
  let g2 = Term.app "p" [ Term.var (); Term.app "f" [ Term.atom "a"; Term.var () ] ] in
  let e2, created2 = Table.subgoal_entry t g2 in
  Alcotest.(check bool) "variant does not create" false created2;
  Alcotest.(check int) "variant shares the entry" e1.Table.id e2.Table.id;
  (* repeated variable vs distinct variables: NOT variants *)
  let v = Term.var () in
  let g3 = Term.app "p" [ v; Term.app "f" [ Term.atom "a"; v ] ] in
  let _, created3 = Table.subgoal_entry t g3 in
  Alcotest.(check bool) "repeated-var pattern is a new subgoal" true created3;
  (* different constant: a new subgoal *)
  let g4 = Term.app "p" [ Term.var (); Term.app "f" [ Term.atom "b"; Term.var () ] ] in
  let _, created4 = Table.subgoal_entry t g4 in
  Alcotest.(check bool) "different constant is a new subgoal" true created4;
  Alcotest.(check int) "three entries" 3 (Table.subgoal_count t);
  (* a bound variable makes the call an instance of its resolved form *)
  let w = Term.fresh_var () in
  w.Term.binding <- Some (Term.atom "a");
  let g5 = Term.app "p" [ Term.var (); Term.app "f" [ Term.Var w; Term.var () ] ] in
  let e5, created5 = Table.subgoal_entry t g5 in
  Alcotest.(check bool) "bound var resolves before filing" false created5;
  Alcotest.(check int) "resolves to the first entry" e1.Table.id e5.Table.id

(* ------------------------------------------------------------------ *)
(* Answer trie: insert-if-new                                          *)
(* ------------------------------------------------------------------ *)

let test_answer_dedup () =
  let t = Table.create () in
  let entry, _ = Table.subgoal_entry t (Term.app "p" [ Term.var () ]) in
  let ins x = Table.insert t entry (Term.app "p" [ x ]) in
  Alcotest.(check bool) "first insert" true (ins (Term.atom "a") = Table.Inserted);
  Alcotest.(check bool) "duplicate" true (ins (Term.atom "a") = Table.Duplicate);
  Alcotest.(check bool) "distinct answer" true (ins (Term.int 3) = Table.Inserted);
  (* alpha-equivalent non-ground answers are duplicates too *)
  Alcotest.(check bool) "open answer" true (ins (Term.var ()) = Table.Inserted);
  Alcotest.(check bool) "variant answer" true (ins (Term.var ()) = Table.Duplicate);
  Alcotest.(check int) "three retained" 3 (Table.answer_count entry);
  (* the max_answers guard *)
  let t2 = Table.create ~max_answers:2 () in
  let e2, _ = Table.subgoal_entry t2 (Term.app "q" [ Term.var () ]) in
  let ins2 x = Table.insert t2 e2 (Term.app "q" [ Term.int x ]) in
  Alcotest.(check bool) "under the cap" true (ins2 0 = Table.Inserted);
  Alcotest.(check bool) "at the cap" true (ins2 1 = Table.Inserted);
  Alcotest.(check bool) "over the cap" true (ins2 2 = Table.Overflow)

(* ------------------------------------------------------------------ *)
(* Golden completion order on a hand-built SCC chain                   *)
(* ------------------------------------------------------------------ *)

(* Dependencies: a -> b -> {c, d}, b -> a (so {a,b} is one SCC), with c
   and d independent below it.  Every call passes a free variable, so
   each predicate contributes exactly one subgoal.  Incremental
   completion must close c and d as soon as their own fixpoints are
   done — while {a,b} is still open — and then pop the {a,b} region
   deepest-first. *)
let scc_program =
  {|
:- table(a/1).
:- table(b/1).
:- table(c/1).
:- table(d/1).
a(X) :- b(X).
b(X) :- c(X).
b(X) :- d(X).
b(X) :- a(X).
c(1).
d(2).
|}

let test_completion_order () =
  let table = Table.create () in
  let r = solve ~table scc_program "a(X)" in
  Alcotest.(check (list string)) "answers" [ "a(1)"; "a(2)" ]
    (Canon.multiset r.Engine.solutions);
  Alcotest.(check (list string)) "incremental completion order"
    [ "c('_V0')"; "d('_V0')"; "b('_V0')"; "a('_V0')" ]
    (Table.completion_log table);
  (* every engine reproduces the same completion order: the evaluation
     is the same kernel loop regardless of the surrounding scheduler *)
  List.iter
    (fun kind ->
      let table = Table.create ~locked:(kind = Engine.Par_or) () in
      ignore (solve ~table ~kind scc_program "a(X)");
      Alcotest.(check (list string))
        (Printf.sprintf "completion order on %s" (Engine.kind_to_string kind))
        [ "c('_V0')"; "d('_V0')"; "b('_V0')"; "a('_V0')" ]
        (Table.completion_log table))
    [ Engine.And_parallel; Engine.Or_parallel; Engine.Par_or ]

(* ------------------------------------------------------------------ *)
(* Nested SCCs: a region that reaches an older table late              *)
(* ------------------------------------------------------------------ *)

(* [b] is an inner SCC under [a]: its first pass consumes only itself,
   and only the answer [s1], derived after that pass, leads through
   [step(s1, X) :- a(X)] back into the still-open [a].  Completing [b]
   as its own leader after the first pass loses [b(z)]; [q/1] reads
   [b]'s table after [a] completed, so it sees the loss (6 of its 9
   answers). *)
let nested_scc_program =
  {|
:- table(a/1).
:- table(b/1).
a(X) :- b(X).
a(z).
b(X) :- b(Y), step(Y, X).
b(s0).
step(s0, s1).
step(s1, X) :- a(X).
q(X) :- a(_), b(X).
|}

(* The same SCC with [c] reading [b] inside it: [c] must not take [b]'s
   answers as final while [b] can still reach [a], or it misses [c(z)]
   even if [b] is mended later. *)
let nested_scc_reader_program =
  nested_scc_program ^ {|
:- table(c/1).
a(X) :- c(X).
c(X) :- b(X).
r(X) :- a(_), c(X).
|}

let engine_modes =
  List.concat_map
    (fun kind ->
      List.map (fun compile -> (kind, compile)) (Engine.compile_modes kind))
    [ Engine.Sequential; Engine.And_parallel; Engine.Or_parallel; Engine.Par_or ]

let mode_config kind compile =
  match kind with
  | Engine.Sequential -> { Config.default with Config.compile }
  | _ -> { (Config.all_optimizations ~agents:2 ()) with Config.compile }

let mode_name kind compile =
  Engine.kind_to_string kind ^ if compile then " compiled" else ""

let test_nested_scc () =
  let b_answers = [ "b(s0)"; "b(s1)"; "b(z)" ] in
  let q_answers =
    List.concat_map (fun x -> [ x; x; x ]) [ "q(s0)"; "q(s1)"; "q(z)" ]
  in
  List.iter
    (fun (kind, compile) ->
      let config = mode_config kind compile in
      Alcotest.(check (list string))
        (mode_name kind compile ^ ": b/1 alone")
        b_answers
        (multiset ~kind ~config nested_scc_program "b(X)");
      Alcotest.(check (list string))
        (mode_name kind compile ^ ": b/1 read after a/1 completed")
        q_answers
        (multiset ~kind ~config nested_scc_program "q(X)");
      Alcotest.(check (list string))
        (mode_name kind compile ^ ": c/1 read inside the SCC")
        (List.concat_map (fun x -> [ x; x; x ]) [ "r(s0)"; "r(s1)"; "r(z)" ])
        (multiset ~kind ~config nested_scc_reader_program "r(X)"))
    engine_modes

(* ------------------------------------------------------------------ *)
(* The fallback: consumers under control constructs                    *)
(* ------------------------------------------------------------------ *)

(* Each program consumes an incomplete table under or beside a control
   construct.  Inside an if-then-else condition or negation the consumer
   is a fallback read (its continuation stops short of its clause's),
   and the leader re-passes the region until no read missed an answer.
   [call/1] only moves the cut barrier and a cut already run cannot cut
   again, so there the continuation is cut-free and the consumer is
   saved: nothing is re-passed.  The last condition reads the table
   before the answer it looks for exists, so any evaluation must re-pass
   its region; its answers are the closure plus the one the condition
   adds once p(a,d) is there.  The other answers are pinned from the
   naive-fixpoint evaluator.  Every engine, in each of its modes. *)
let fallback_edges = "e(a,b). e(b,c). e(c,a). e(c,d).\n"

let closure = [ "p(a,a)"; "p(a,b)"; "p(a,c)"; "p(a,d)" ]

(* name, rules, answers, and whether the region is re-passed (when the
   evaluation decides it) *)
let fallback_cases =
  [ ( "if-then-else condition",
      {|
:- table(p/2).
p(X, Y) :- e(X, Y).
p(X, Y) :- ( p(X, Z) -> e(Z, Y) ; fail ).
|},
      [ "p(a,b)"; "p(a,c)" ], None );
    ( "negation",
      {|
:- table(p/2).
p(X, Y) :- e(X, Y).
p(X, Y) :- \+ \+ p(X, _), p(X, Z), e(Z, Y), \+ p(X, zz).
|},
      closure, None );
    ( "call/1",
      {|
:- table(p/2).
:- table(q/2).
p(X, Y) :- e(X, Y).
p(X, Y) :- call(q(X, Z)), e(Z, Y).
q(X, Y) :- p(X, Y).
|},
      closure, Some false );
    ( "clause with a cut",
      {|
:- table(p/2).
p(X, Y) :- e(X, Y).
p(X, Y) :- !, p(X, Z), e(Z, Y).
|},
      closure, None );
    ( "condition read before its answers exist",
      {|
:- table(p/2).
p(X, Y) :- ( p(X, W), W == d -> Y = found ; fail ).
p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), e(Z, Y).
|},
      closure @ [ "p(a,found)" ], Some true ) ]

let test_fallback () =
  List.iter
    (fun (name, rules, expected, repassed) ->
      List.iter
        (fun (kind, compile) ->
          let config = mode_config kind compile in
          let r = solve ~kind ~config (fallback_edges ^ rules) "p(a, X)" in
          let stats = r.Engine.stats in
          let label = Printf.sprintf "%s (%s)" name (mode_name kind compile) in
          Alcotest.(check (list string)) label expected
            (Canon.multiset r.Engine.solutions);
          Alcotest.(check bool) (label ^ ": consumed an incomplete table") true
            (stats.Ace_machine.Stats.table_suspends > 0);
          Option.iter
            (fun repassed ->
              Alcotest.(check bool) (label ^ ": re-passed the region") repassed
                (stats.Ace_machine.Stats.table_resumes > 0))
            repassed)
        engine_modes)
    fallback_cases

(* ------------------------------------------------------------------ *)
(* Generators run in the calling agent's mode                          *)
(* ------------------------------------------------------------------ *)

(* examples/reach.pl.  Its tabled clauses run on the calling agent's
   machine in that agent's mode: compiled code on seq/c and par, beyond
   the 12 instructions of the outer call's six answer-clause tries, and
   interpreted (no instructions at all) on seq, and and or. *)
let reach_program =
  {|
:- table(path/2).
edge(a, b). edge(b, c). edge(c, a). edge(c, d). edge(d, e). edge(a, f).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
|}

let test_generator_mode () =
  List.iter
    (fun (name, kind, compiled) ->
      let config = { Config.default with Config.compile = compiled } in
      let r = solve ~kind ~config reach_program "path(a, X)" in
      let instrs = r.Engine.stats.Ace_machine.Stats.code_instrs in
      Alcotest.(check int) (name ^ ": answers") 6
        (List.length r.Engine.solutions);
      if compiled then
        Alcotest.(check bool)
          (Printf.sprintf "%s: generator compiled (%d instructions)" name
             instrs)
          true (instrs > 12)
      else Alcotest.(check int) (name ^ ": generator interpreted") 0 instrs)
    [ ("seq/c", Engine.Sequential, true); ("par@1", Engine.Par_or, true);
      ("seq", Engine.Sequential, false); ("and", Engine.And_parallel, false);
      ("or", Engine.Or_parallel, false) ]

(* ------------------------------------------------------------------ *)
(* 200-node cyclic reachability (the acceptance criterion)             *)
(* ------------------------------------------------------------------ *)

let nodes = 200

(* A directed ring plus chords: strongly connected, so the reachable set
   from n0 is all 200 nodes, and plain SLD on the left recursion would
   loop forever. *)
let cyclic_program =
  let b = Buffer.create 4096 in
  Buffer.add_string b ":- table(path/2).\n";
  for i = 0 to nodes - 1 do
    Printf.bprintf b "edge(n%d, n%d).\n" i ((i + 1) mod nodes)
  done;
  for i = 0 to (nodes / 10) - 1 do
    Printf.bprintf b "edge(n%d, n%d).\n" (i * 10) ((i * 10 + 37) mod nodes)
  done;
  Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
  Buffer.add_string b "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  Buffer.contents b

let reachable_expected =
  Canon.multiset
    (List.init nodes (fun j ->
         Term.app "path" [ Term.atom "n0"; Term.atom (Printf.sprintf "n%d" j) ]))

let test_cyclic_reachability () =
  List.iter
    (fun kind ->
      List.iter
        (fun compile ->
          let config =
            match kind with
            | Engine.Sequential -> { Config.default with Config.compile }
            | _ -> { (Config.all_optimizations ~agents:2 ()) with Config.compile }
          in
          Alcotest.(check (list string))
            (Printf.sprintf "reachable set on %s%s" (Engine.kind_to_string kind)
               (if compile then " compiled" else ""))
            reachable_expected
            (multiset ~kind ~config cyclic_program "path(n0, X)"))
        (Engine.compile_modes kind))
    [ Engine.Sequential; Engine.And_parallel; Engine.Or_parallel; Engine.Par_or ]

(* ------------------------------------------------------------------ *)
(* Chaos schedules: suspend/resume interleaving is deterministic        *)
(* ------------------------------------------------------------------ *)

(* Mutual recursion over a cycle: evaluation suspends on both tabled
   predicates and resumes its saved consumers through the leader.  Chaos
   jitter reorders the surrounding engine scheduling; the answers and
   the completion order must not move, and the same chaos seed must
   replay the identical run. *)
let mutual_program =
  {|
:- table(p/2).
:- table(q/2).
e(a, b). e(b, c). e(c, a). e(c, d).
p(X, Y) :- e(X, Y).
p(X, Y) :- q(X, Z), e(Z, Y).
q(X, Y) :- p(X, Y).
|}

let test_chaos_replay () =
  let reference = multiset mutual_program "p(a, X)" in
  Alcotest.(check int) "reference reaches everything" 4 (List.length reference);
  List.iter
    (fun kind ->
      for seed = 0 to 4 do
        let run () =
          let table = Table.create () in
          let config = Config.all_optimizations ~agents:3 () in
          let sols =
            multiset ~table ~chaos:(Chaos.make ~seed ()) ~kind ~config
              mutual_program "p(a, X)"
          in
          (sols, Table.completion_log table)
        in
        let sols1, log1 = run () in
        let sols2, log2 = run () in
        Alcotest.(check (list string))
          (Printf.sprintf "%s chaos#%d matches reference"
             (Engine.kind_to_string kind) seed)
          reference sols1;
        Alcotest.(check (list string))
          (Printf.sprintf "%s chaos#%d solutions replay"
             (Engine.kind_to_string kind) seed)
          sols1 sols2;
        Alcotest.(check (list string))
          (Printf.sprintf "%s chaos#%d completion order replays"
             (Engine.kind_to_string kind) seed)
          log1 log2
      done)
    [ Engine.And_parallel; Engine.Or_parallel ]

(* ------------------------------------------------------------------ *)
(* Concurrent 4-domain answer table                                    *)
(* ------------------------------------------------------------------ *)

(* start/1 fans out into parallel branches that all call the same
   path/2 variants, so domains race to evaluate shared subgoals.  The
   answer table must neither lose nor duplicate answers: the solution
   multiset equals the sequential run, every repetition. *)
let concurrent_program =
  cyclic_program ^ "start(s1). start(s2). start(s3). start(s4).\n"

let test_concurrent_domains () =
  let query = "start(S), path(n0, X)" in
  let expected = multiset concurrent_program query in
  Alcotest.(check int) "4 starts x 200 targets" (4 * nodes)
    (List.length expected);
  let config = { (Config.all_optimizations ~agents:4 ()) with Config.compile = true } in
  for round = 1 to 3 do
    let table = Table.create ~locked:true () in
    Alcotest.(check (list string))
      (Printf.sprintf "par@4 multiset, round %d" round)
      expected
      (multiset ~table ~kind:Engine.Par_or ~config concurrent_program query);
    (* exactly one completion of each tabled subgoal, however many
       domains raced on it *)
    let log = List.sort String.compare (Table.completion_log table) in
    Alcotest.(check (list string))
      (Printf.sprintf "unique completions, round %d" round)
      (List.sort_uniq String.compare log) log
  done

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "subgoal trie variant detection" `Quick
      test_variant_detection;
    Alcotest.test_case "answer trie dedup + cap" `Quick test_answer_dedup;
    Alcotest.test_case "golden completion order" `Quick test_completion_order;
    Alcotest.test_case "nested SCC completes with its caller" `Quick
      test_nested_scc;
    Alcotest.test_case "fallback under control constructs" `Quick
      test_fallback;
    Alcotest.test_case "generators run in the agent's mode" `Quick
      test_generator_mode;
    Alcotest.test_case "200-node cyclic reachability" `Slow
      test_cyclic_reachability;
    Alcotest.test_case "chaos suspend/resume replay" `Slow test_chaos_replay;
    Alcotest.test_case "concurrent 4-domain table" `Slow
      test_concurrent_domains ]
