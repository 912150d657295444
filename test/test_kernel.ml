(* The shared solver kernel: schema hook decisions (fired / not fired
   around their thresholds), goal classification, and the and-parallel
   tuple/cross-product helpers — engine-independent, so they are tested
   once here instead of per engine — plus the abstract cycles each
   engine is charged through the kernel, pinned on one program. *)

module Term = Ace_term.Term
module Clause = Ace_lang.Clause
module Config = Ace_machine.Config
module Kernel = Ace_core.Kernel
module Schema = Kernel.Schema

let cfg = Config.all_optimizations ()
let off = Config.default

let call s = Clause.Call (Test_util.term s)

(* ------------------------------------------------------------------ *)
(* Sequentialization (granularity control)                             *)

let test_sequentialize_threshold () =
  let small = [ [ call "p(a)" ]; [ call "q(b)" ] ] in
  Alcotest.(check bool) "fires below threshold" true
    (Schema.sequentialize { cfg with Config.seq_threshold = 100 } small);
  Alcotest.(check bool) "does not fire above threshold" false
    (Schema.sequentialize { cfg with Config.seq_threshold = 2 } small);
  Alcotest.(check bool) "threshold 0 is off" false
    (Schema.sequentialize { cfg with Config.seq_threshold = 0 } small)

let test_sequentialize_counts_nested () =
  (* nested parcall work counts against the budget too *)
  let nested =
    [ [ Clause.Par [ [ call "p(f(a,b,c))" ]; [ call "q(g(d,e))" ] ] ];
      [ call "r(h(i,j,k))" ] ]
  in
  Alcotest.(check bool) "nested branches spend the budget" false
    (Schema.sequentialize { cfg with Config.seq_threshold = 5 } nested)

(* ------------------------------------------------------------------ *)
(* LPCO: nested-parcall flattening                                     *)

let test_lpco_flattens () =
  let inner = Clause.Par [ [ call "a" ]; [ call "b" ] ] in
  let bodies = [ [ inner ]; [ call "c" ] ] in
  let flat, splices = Schema.lpco_flatten cfg bodies in
  Alcotest.(check int) "one splice" 1 splices;
  Alcotest.(check int) "three branches after flattening" 3 (List.length flat)

let test_lpco_keeps_mixed_branches () =
  (* a branch with work besides the nested parcall must keep its frame *)
  let mixed = [ call "setup"; Clause.Par [ [ call "a" ]; [ call "b" ] ] ] in
  let flat, splices = Schema.lpco_flatten cfg [ mixed; [ call "c" ] ] in
  Alcotest.(check int) "no splice" 0 splices;
  Alcotest.(check int) "branches unchanged" 2 (List.length flat)

let test_lpco_off () =
  let inner = Clause.Par [ [ call "a" ]; [ call "b" ] ] in
  let _, splices = Schema.lpco_flatten off [ [ inner ] ] in
  Alcotest.(check int) "no splice with lpco off" 0 splices

(* ------------------------------------------------------------------ *)
(* SPO: procrastinated frame setup                                     *)

let test_spo_inline () =
  Alcotest.(check bool) "fires while nobody is hungry" true
    (Schema.spo_inline cfg ~hungry:0);
  Alcotest.(check bool) "does not fire with a hungry worker" false
    (Schema.spo_inline cfg ~hungry:1);
  Alcotest.(check bool) "off without the flag" false
    (Schema.spo_inline off ~hungry:0)

(* ------------------------------------------------------------------ *)
(* PDO: contiguous-slot preference                                     *)

let test_pdo_contiguous () =
  Alcotest.(check bool) "fires on the sequentially-next slot" true
    (Schema.pdo_contiguous cfg ~last:(Some (7, 2)) ~next:(7, 3));
  Alcotest.(check bool) "does not fire across frames" false
    (Schema.pdo_contiguous cfg ~last:(Some (7, 2)) ~next:(8, 3));
  Alcotest.(check bool) "does not fire on a gap" false
    (Schema.pdo_contiguous cfg ~last:(Some (7, 0)) ~next:(7, 2));
  Alcotest.(check bool) "no history, no preference" false
    (Schema.pdo_contiguous cfg ~last:None ~next:(7, 1));
  Alcotest.(check bool) "off without the flag" false
    (Schema.pdo_contiguous off ~last:(Some (7, 2)) ~next:(7, 3))

(* ------------------------------------------------------------------ *)
(* Or-parallel publish decisions                                       *)

let test_publish_grain () =
  let g2 = { cfg with Config.grain = 2 } in
  Alcotest.(check bool) "at grain" true (Schema.publish_grain g2 ~nalts:2);
  Alcotest.(check bool) "below grain" false (Schema.publish_grain g2 ~nalts:1)

let test_lao_refurbish () =
  Alcotest.(check bool) "fires on an exhausted top" true
    (Schema.lao_refurbish cfg ~top_exhausted:true);
  Alcotest.(check bool) "does not fire on a live top" false
    (Schema.lao_refurbish cfg ~top_exhausted:false);
  Alcotest.(check bool) "off without the flag" false
    (Schema.lao_refurbish off ~top_exhausted:true)

(* ------------------------------------------------------------------ *)
(* Goal classification                                                 *)

let test_classify () =
  let is_goal t = match Kernel.classify t with Kernel.Goal _ -> true | _ -> false in
  (match Kernel.classify (Test_util.term "(a, b)") with
   | Kernel.Conj _ -> ()
   | _ -> Alcotest.fail "','/2 should classify as Conj");
  (match Kernel.classify (Test_util.term "(a ; b)") with
   | Kernel.Disj _ -> ()
   | _ -> Alcotest.fail "';'/2 should classify as Disj");
  (match Kernel.classify (Test_util.term "(a -> b ; c)") with
   | Kernel.Ite _ -> ()
   | _ -> Alcotest.fail "if-then-else should classify as Ite");
  (match Kernel.classify (Test_util.term "call(foo(X))") with
   | Kernel.Meta _ -> ()
   | _ -> Alcotest.fail "call/1 should classify as Meta");
  Alcotest.(check bool) "plain goal" true (is_goal (Test_util.term "foo(X, 1)"))

(* ------------------------------------------------------------------ *)
(* And-parallel tuples and cross products                              *)

let test_slot_tuples_independent () =
  let x = Term.fresh_var () and y = Term.fresh_var () in
  let bodies =
    [ [ Clause.Call (Term.struct_ "p" [| Term.Var x |]) ];
      [ Clause.Call (Term.struct_ "q" [| Term.Var y |]) ] ]
  in
  match Kernel.Parcall.slot_tuples bodies with
  | None -> Alcotest.fail "independent branches should produce tuples"
  | Some tuples ->
    Alcotest.(check int) "one tuple per branch" 2 (Array.length tuples)

let test_slot_tuples_shared_var () =
  let x = Term.fresh_var () in
  let bodies =
    [ [ Clause.Call (Term.struct_ "p" [| Term.Var x |]) ];
      [ Clause.Call (Term.struct_ "q" [| Term.Var x |]) ] ]
  in
  Alcotest.(check bool) "shared variable vetoes the frame" true
    (Kernel.Parcall.slot_tuples bodies = None)

let test_slot_tuples_bound_shared_ok () =
  (* sharing a *bound* structure is fine; only unbound sharing vetoes *)
  let x = Term.fresh_var () in
  let trail = Ace_term.Trail.create () in
  assert (Ace_term.Unify.unify ~trail ~steps:(ref 0) (Term.Var x) (Term.atom "a"));
  let bodies =
    [ [ Clause.Call (Term.struct_ "p" [| Term.Var x |]) ];
      [ Clause.Call (Term.struct_ "q" [| Term.Var x |]) ] ]
  in
  Alcotest.(check bool) "bound sharing is independent" true
    (Kernel.Parcall.slot_tuples bodies <> None)

let test_cross_order () =
  (* rightmost slot varies fastest: the sequential enumeration order *)
  let t s = Term.atom s in
  let rows = [| [ t "a1"; t "a2" ]; [ t "b1"; t "b2" ] |] in
  let render row = Ace_term.Pp.to_string row in
  Alcotest.(check (list string)) "sequential order"
    [ "'$parjoin'(a1,b1)"; "'$parjoin'(a1,b2)"; "'$parjoin'(a2,b1)";
      "'$parjoin'(a2,b2)" ]
    (List.map render (Kernel.Parcall.cross rows))

let test_cross_empty_slot_fails () =
  let rows = [| [ Term.atom "a" ]; [] |] in
  Alcotest.(check int) "an empty slot empties the product" 0
    (List.length (Kernel.Parcall.cross rows))

(* ------------------------------------------------------------------ *)
(* Charges                                                             *)

(* The abstract clocks and work counters every engine reads off the
   kernel, pinned on examples/queens.pl (queens 6) and examples/reach.pl
   (tabled, left-recursive), default configuration: a change to who
   decides what a call comes to, or to how charges are paid, must not
   change what is charged or counted.  par@1's counters are deterministic
   (one domain, nobody to publish to). *)
let queens =
  "sel(X, [X|T], T).\n\
   sel(X, [H|T], [H|R]) :- sel(X, T, R).\n\
   noatt(_, [], _).\n\
   noatt(Q, [Q2|Qs], D) :- Q2 =\\= Q + D, Q2 =\\= Q - D, D1 is D + 1,\n\
  \  noatt(Q, Qs, D1).\n\
   place([], Placed, Placed).\n\
   place(Un, Placed, Qs) :- sel(Q, Un, Rest), noatt(Q, Placed, 1),\n\
  \  place(Rest, [Q|Placed], Qs).\n\
   queens(Ns, Qs) :- place(Ns, [], Qs).\n"

let reach =
  ":- table(path/2).\n\
   edge(a, b). edge(b, c). edge(c, a). edge(c, d). edge(d, e). edge(a, f).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- path(X, Z), edge(Z, Y).\n"

let test_cycle_pins () =
  let module Engine = Ace_core.Engine in
  let module Stats = Ace_machine.Stats in
  let run kind agents compile program query count =
    let config = { Config.default with Config.agents; compile } in
    let r = Engine.solve_program kind config ~program ~query in
    Alcotest.(check int) "solutions" count (List.length r.Engine.solutions);
    r
  in
  (* clause_tries, unify_steps, builtin_calls, cp_allocs, cp_updates,
     backtracks, bt_nodes_visited, trail_pushes, untrails, code_instrs,
     env_allocs *)
  let work (s : Stats.t) =
    [ s.Stats.clause_tries; s.unify_steps; s.builtin_calls; s.cp_allocs;
      s.cp_updates; s.backtracks; s.bt_nodes_visited; s.trail_pushes;
      s.untrails; s.code_instrs; s.env_allocs ]
  in
  let table (s : Stats.t) =
    [ s.Stats.table_subgoals; s.table_answers; s.table_suspends;
      s.table_variant_hits ]
  in
  List.iter
    (fun (name, kind, agents, compile, cycles, counters) ->
      let r = run kind agents compile queens "queens([1,2,3,4,5,6], Qs)" 4 in
      Alcotest.(check (option int)) (name ^ " cycles") cycles r.Engine.cycles;
      Alcotest.(check (list int)) (name ^ " work") counters
        (work r.Engine.stats);
      let r = run kind agents compile reach "path(a, X)" 6 in
      Alcotest.(check (list int)) (name ^ " reach table") [ 1; 6; 1; 1 ]
        (table r.Engine.stats))
    [ ("seq/c", Engine.Sequential, 1, true, Some 54_707,
       [ 2261; 716; 2047; 360; 0; 361; 360; 1072; 1066; 22108; 153 ]);
      ("seq", Engine.Sequential, 1, false, Some 71_259,
       [ 3048; 14521; 3645; 512; 0; 513; 512; 8579; 8550; 0; 0 ]);
      ("and@1", Engine.And_parallel, 1, false, Some 92_810,
       [ 3048; 14521; 3645; 1449; 0; 1450; 1449; 8579; 8550; 0; 0 ]);
      ("and@2", Engine.And_parallel, 2, false, Some 92_810,
       [ 3048; 14521; 3645; 1449; 0; 1450; 1449; 8579; 8550; 0; 0 ]);
      ("or@1", Engine.Or_parallel, 1, false, Some 100_055,
       [ 3048; 14521; 3645; 1449; 0; 2899; 2898; 8579; 8550; 0; 0 ]);
      ("or@2", Engine.Or_parallel, 2, false, Some 53_141,
       [ 3048; 14521; 3645; 1449; 0; 2920; 3000; 8579; 8882; 0; 0 ]);
      ("par@1", Engine.Par_or, 1, false, None,
       [ 2261; 716; 2047; 662; 0; 663; 662; 1072; 1066; 22108; 153 ]) ];
  Alcotest.(check (option int)) "par@2 cycles" None
    (run Engine.Par_or 2 false queens "queens([1,2,3,4,5,6], Qs)" 4)
      .Engine.cycles

let suite =
  [
    Alcotest.test_case "sequentialize threshold" `Quick
      test_sequentialize_threshold;
    Alcotest.test_case "sequentialize nested" `Quick
      test_sequentialize_counts_nested;
    Alcotest.test_case "lpco flattens" `Quick test_lpco_flattens;
    Alcotest.test_case "lpco keeps mixed" `Quick test_lpco_keeps_mixed_branches;
    Alcotest.test_case "lpco off" `Quick test_lpco_off;
    Alcotest.test_case "spo inline" `Quick test_spo_inline;
    Alcotest.test_case "pdo contiguous" `Quick test_pdo_contiguous;
    Alcotest.test_case "publish grain" `Quick test_publish_grain;
    Alcotest.test_case "lao refurbish" `Quick test_lao_refurbish;
    Alcotest.test_case "classify" `Quick test_classify;
    Alcotest.test_case "slot tuples independent" `Quick
      test_slot_tuples_independent;
    Alcotest.test_case "slot tuples shared" `Quick test_slot_tuples_shared_var;
    Alcotest.test_case "slot tuples bound share" `Quick
      test_slot_tuples_bound_shared_ok;
    Alcotest.test_case "cross order" `Quick test_cross_order;
    Alcotest.test_case "cross empty slot" `Quick test_cross_empty_slot_fails;
    Alcotest.test_case "cycle pins (queens 6)" `Quick test_cycle_pins;
  ]
