(* Trail and unification tests. *)

module Term = Ace_term.Term
module Trail = Ace_term.Trail
module Unify = Ace_term.Unify
open Test_util

let unify ?occurs_check trail a b =
  let steps = ref 0 in
  Unify.unify ?occurs_check ~trail ~steps a b

let test_trail_undo () =
  let trail = Trail.create () in
  let x = Term.fresh_var () and y = Term.fresh_var () in
  let mark0 = Trail.mark trail in
  assert (unify trail (Term.Var x) (Term.int 1));
  let mark1 = Trail.mark trail in
  assert (unify trail (Term.Var y) (Term.int 2));
  Alcotest.(check int) "two entries" 2 (Trail.size trail);
  let undone = Trail.undo_to trail mark1 in
  Alcotest.(check int) "one undone" 1 undone;
  Alcotest.(check bool) "y unbound" true (y.Term.binding = None);
  Alcotest.(check bool) "x still bound" true (x.Term.binding <> None);
  ignore (Trail.undo_to trail mark0);
  Alcotest.(check bool) "x unbound" true (x.Term.binding = None)

let test_trail_growth () =
  let trail = Trail.create () in
  let vars = List.init 500 (fun _ -> Term.fresh_var ()) in
  List.iter
    (fun v ->
      v.Term.binding <- Some (Term.int 0);
      Trail.push trail v)
    vars;
  Alcotest.(check int) "all recorded" 500 (Trail.size trail);
  ignore (Trail.undo_to trail 0);
  Alcotest.(check bool) "all unbound" true
    (List.for_all (fun v -> v.Term.binding = None) vars)

(* Conditional trailing: [push] records a variable only when it is no
   younger than the watermark.  A new trail records everything, and
   [raise_hb] leaves it so. *)
let test_trail_watermark () =
  let trail = Trail.create () in
  Alcotest.(check int) "raise_hb returns the old value" max_int
    (Trail.raise_hb trail);
  Alcotest.(check int) "a new trail stays full" max_int (Trail.hb trail);
  let old = Term.fresh_var () in
  Trail.set_hb trail (-1);
  assert (unify trail (Term.Var old) (Term.int 1));
  Alcotest.(check int) "below every stamp: nothing trailed" 0
    (Trail.size trail);
  old.Term.binding <- None;
  Alcotest.(check int) "returns the value it raised" (-1)
    (Trail.raise_hb trail);
  Alcotest.(check int) "raised to now" (Term.stamp ()) (Trail.hb trail);
  let young = Term.fresh_var () in
  assert (unify trail (Term.Var old) (Term.int 1));
  assert (unify trail (Term.Var young) (Term.int 2));
  Alcotest.(check int) "only the older variable trailed" 1 (Trail.size trail);
  ignore (Trail.undo_to trail 0);
  Alcotest.(check bool) "older unbound" true (old.Term.binding = None);
  Alcotest.(check bool) "younger left bound" true (young.Term.binding <> None)

let test_trail_segment () =
  let trail = Trail.create () in
  let vars = Array.init 6 (fun _ -> Term.fresh_var ()) in
  Array.iter
    (fun v ->
      v.Term.binding <- Some (Term.int 1);
      Trail.push trail v)
    vars;
  let seg = Trail.segment trail ~lo:2 ~hi:4 in
  let undone = Trail.undo_segment seg in
  Alcotest.(check int) "segment size" 2 undone;
  Alcotest.(check bool) "middle undone" true
    (vars.(2).Term.binding = None && vars.(3).Term.binding = None);
  Alcotest.(check bool) "edges intact" true
    (vars.(0).Term.binding <> None && vars.(5).Term.binding <> None)

let test_unify_basic () =
  let trail = Trail.create () in
  let t1 = term "f(X, g(Y), 3)" and t2 = term "f(1, g(2), Z)" in
  Alcotest.(check bool) "unifies" true (unify trail t1 t2);
  check_term "t1 instantiated" "f(1,g(2),3)" (Term.copy_resolved t1);
  check_term "t2 instantiated" "f(1,g(2),3)" (Term.copy_resolved t2)

let test_unify_failure_mismatch () =
  let trail = Trail.create () in
  Alcotest.(check bool) "functor clash" false (unify trail (term "f(1)") (term "g(1)"));
  Alcotest.(check bool) "arity clash" false (unify trail (term "f(1)") (term "f(1,2)"));
  Alcotest.(check bool) "atom vs int" false (unify trail (term "a") (term "1"))

let test_unify_or_undo () =
  let trail = Trail.create () in
  let steps = ref 0 in
  let x = term "X" in
  let a = Term.app "f" [ x; Term.int 1 ] in
  let b = Term.app "f" [ Term.int 2; Term.int 9 ] in
  Alcotest.(check bool) "fails" false
    (Unify.unify_or_undo ~trail ~steps a b);
  Alcotest.(check int) "trail restored" 0 (Trail.size trail);
  Alcotest.(check bool) "x unbound again" true
    (match Term.deref x with Term.Var _ -> true | _ -> false)

let test_occurs_check () =
  let trail = Trail.create () in
  let x = Term.var () in
  let fx = Term.app "f" [ x ] in
  Alcotest.(check bool) "without occurs check binds" true (unify trail x fx);
  ignore (Trail.undo_to trail 0);
  Alcotest.(check bool) "with occurs check fails" false
    (unify ~occurs_check:true trail x fx)

let test_matches () =
  Alcotest.(check bool) "satisfiable" true
    (Unify.matches (term "f(X, 1)") (term "f(2, Y)"));
  Alcotest.(check bool) "unsatisfiable" false
    (Unify.matches (term "f(1)") (term "f(2)"));
  (* no residue: both terms stay open *)
  let a = term "g(X)" in
  ignore (Unify.matches a (term "g(5)"));
  Alcotest.(check bool) "no bindings left" false (Term.is_ground a)

(* properties *)

let with_trail f =
  let trail = Trail.create () in
  f trail

let prop_unify_makes_equal =
  (* occurs check on: without it a term with a repeated variable (e.g.
     f(X, f(X)) against f(Y, Y)) can unify into a rational tree, and
     [Term.equal] diverges on cyclic bindings — the engines never traverse
     such terms, but this property would *)
  qcheck "successful unify makes terms equal"
    QCheck2.Gen.(pair open_term_gen open_term_gen)
    (fun (a, b) ->
      with_trail (fun trail ->
          if unify ~occurs_check:true trail a b then Term.equal a b else true))

let prop_undo_restores =
  qcheck "undo restores open variables"
    QCheck2.Gen.(pair open_term_gen open_term_gen)
    (fun (a, b) ->
      with_trail (fun trail ->
          let before = Ace_term.Pp.to_string a in
          let mark = Trail.mark trail in
          ignore (unify trail a b);
          ignore (Trail.undo_to trail mark);
          (* variable identities persist, so printing is stable *)
          String.equal before (Ace_term.Pp.to_string a)))

let prop_unify_symmetric =
  qcheck "unifiability is symmetric"
    QCheck2.Gen.(pair ground_term_gen ground_term_gen)
    (fun (a, b) ->
      with_trail (fun t1 -> unify t1 a b)
      = with_trail (fun t2 -> unify t2 b a))

let prop_ground_unify_is_equal =
  qcheck "ground unification is equality"
    QCheck2.Gen.(pair ground_term_gen ground_term_gen)
    (fun (a, b) -> with_trail (fun trail -> unify trail a b) = Term.equal a b)

let suite =
  [ Alcotest.test_case "trail undo" `Quick test_trail_undo;
    Alcotest.test_case "trail growth" `Quick test_trail_growth;
    Alcotest.test_case "trail watermark" `Quick test_trail_watermark;
    Alcotest.test_case "trail segment" `Quick test_trail_segment;
    Alcotest.test_case "unify basic" `Quick test_unify_basic;
    Alcotest.test_case "unify mismatches" `Quick test_unify_failure_mismatch;
    Alcotest.test_case "unify_or_undo" `Quick test_unify_or_undo;
    Alcotest.test_case "occurs check" `Quick test_occurs_check;
    Alcotest.test_case "matches" `Quick test_matches;
    prop_unify_makes_equal;
    prop_undo_restores;
    prop_unify_symmetric;
    prop_ground_unify_is_equal ]
