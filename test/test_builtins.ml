(* Builtin predicate tests, driven through the sequential engine so the
   full call path (charging, trail bookkeeping) is exercised. *)

open Test_util

let one program query = solutions program query

let succeeds query = List.length (one "" query) = 1
let fails query = one "" query = []

let test_unification_builtins () =
  Alcotest.(check bool) "=" true (succeeds "X = f(1), X = f(1)");
  Alcotest.(check bool) "= fail" true (fails "f(1) = f(2)");
  Alcotest.(check bool) "\\= pos" true (succeeds "f(1) \\= f(2)");
  Alcotest.(check bool) "\\= neg" true (fails "X \\= 1");
  Alcotest.(check bool) "==" true (succeeds "f(X, X) == f(X, X)");
  Alcotest.(check bool) "== distinct vars" true (fails "X == Y");
  Alcotest.(check bool) "\\==" true (succeeds "X \\== Y")

let test_arithmetic () =
  Alcotest.(check (list string)) "is" [ "14 is 2 + 3 * 4, 14 =:= 14" ]
    [ List.hd (one "" "X is 2 + 3 * 4, X =:= 14") ];
  Alcotest.(check bool) "integer division" true (succeeds "7 // 2 =:= 3");
  Alcotest.(check bool) "mod sign follows divisor" true
    (succeeds "-7 mod 3 =:= 2");
  Alcotest.(check bool) "rem sign follows dividend" true
    (succeeds "-7 rem 3 =:= -1");
  Alcotest.(check bool) "min max abs" true
    (succeeds "X is min(3, max(1, 2)) + abs(-4), X =:= 6");
  Alcotest.(check bool) "power" true (succeeds "2 ^ 10 =:= 1024");
  Alcotest.(check bool) "gcd" true (succeeds "gcd(12, 18) =:= 6");
  Alcotest.(check bool) "comparisons" true
    (succeeds "1 < 2, 2 =< 2, 3 > 2, 3 >= 3, 1 =\\= 2");
  let raises query =
    match one "" query with
    | exception Ace_term.Arith.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unbound in is" true (raises "X is Y + 1");
  Alcotest.(check bool) "division by zero" true (raises "X is 1 // 0");
  Alcotest.(check bool) "non-integral /" true (raises "X is 7 / 2")

let test_type_checks () =
  Alcotest.(check bool) "var" true (succeeds "var(X)");
  Alcotest.(check bool) "nonvar" true (succeeds "nonvar(f(X))");
  Alcotest.(check bool) "atom" true (succeeds "atom(foo), \\+ atom(f(1)), \\+ atom(1)");
  Alcotest.(check bool) "integer" true (succeeds "integer(3)");
  Alcotest.(check bool) "atomic" true (succeeds "atomic(a), atomic(1), \\+ atomic(f(1))");
  Alcotest.(check bool) "compound" true (succeeds "compound(f(1)), \\+ compound(a)");
  Alcotest.(check bool) "is_list" true (succeeds "is_list([1,2]), \\+ is_list([1|_])");
  Alcotest.(check bool) "ground" true (succeeds "ground(f(1)), \\+ ground(f(X))")

let test_term_inspection () =
  Alcotest.(check bool) "functor decompose" true
    (succeeds "functor(f(a, b), f, 2)");
  Alcotest.(check bool) "functor construct" true
    (succeeds "functor(T, g, 3), T = g(_, _, _)");
  Alcotest.(check bool) "functor of atom" true (succeeds "functor(foo, foo, 0)");
  Alcotest.(check bool) "arg" true (succeeds "arg(2, f(a, b, c), b)");
  Alcotest.(check bool) "arg out of range" true (fails "arg(4, f(a, b, c), _)");
  Alcotest.(check bool) "univ decompose" true
    (succeeds "f(1, 2) =.. [f, 1, 2]");
  Alcotest.(check bool) "univ construct" true
    (succeeds "T =.. [h, x], T = h(x)");
  Alcotest.(check bool) "compare order" true
    (succeeds "compare(<, 1, a), compare(=, f(1), f(1)), compare(>, b, a)");
  Alcotest.(check bool) "standard order builtins" true
    (succeeds "1 @< a, f(1) @> a, a @=< a, b @>= a")

let test_write () =
  let buf = Buffer.create 64 in
  let p = Ace_lang.Program.consult_string "" in
  let q = Ace_lang.Program.parse_query "write(f(X, [1,2])), nl" in
  let _ =
    Ace_core.Engine.solve
      ~opts:{ Ace_core.Engine.default_opts with output = Some buf }
      Ace_core.Engine.Sequential Ace_machine.Config.default
      (Ace_lang.Program.db p) q.Ace_lang.Program.goal
  in
  Alcotest.(check string) "write output" "f(_G" (String.sub (Buffer.contents buf) 0 4)

let test_existence_error () =
  Alcotest.(check bool) "undefined predicate raises" true
    (match one "" "no_such_thing(1)" with
     | exception Ace_core.Errors.Engine_error _ -> true
     | _ -> false)

module Builtins = Ace_core.Builtins
module Symbol = Ace_term.Symbol

let dispatched ctx sym arity =
  let args = Array.init arity (fun _ -> Term.var ()) in
  match Builtins.call_args ctx sym arity args with
  | Builtins.Not_builtin -> false
  | Builtins.Ok | Builtins.Fail -> true
  | exception (Ace_core.Errors.Engine_error _ | Ace_term.Arith.Error _) -> true

let test_dispatch_table () =
  let ctx =
    Builtins.make_ctx ~output:(Buffer.create 16) ~trail:(Ace_term.Trail.create ()) ()
  in
  List.iter
    (fun (name, arity) ->
      let sym = Symbol.intern name in
      let what = Printf.sprintf "%s/%d" name arity in
      Alcotest.(check bool) (what ^ " dispatches") true (dispatched ctx sym arity);
      Alcotest.(check bool) (what ^ " hook agrees") (Builtins.is_builtin name arity)
        (!Ace_lang.Code.builtin_hook sym arity))
    Builtins.names;
  (* an arity past the key's two bits must not alias another symbol's slot *)
  List.iter
    (fun (name, arity) ->
      Alcotest.(check bool) (Printf.sprintf "%s/%d is no builtin" name arity) false
        (!Ace_lang.Code.builtin_hook (Symbol.intern name) arity
        || dispatched ctx (Symbol.intern name) arity))
    [ ("=", 3); ("true", 1); ("var", 5); ("functor", 7); ("q", 0) ]

let test_late_symbol () =
  let sym = Symbol.intern "zz_late_builtin" in
  Alcotest.(check int) "interned last" (Symbol.count () - 1) (Symbol.id sym);
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) "past every builtin name" true
        (Symbol.id sym > Symbol.id (Symbol.intern name)))
    Builtins.names;
  let ctx = Builtins.make_ctx ~trail:(Ace_term.Trail.create ()) () in
  let not_builtin = function Builtins.Not_builtin -> true | _ -> false in
  Alcotest.(check bool) "call: atom" true
    (not_builtin (Builtins.call ctx (Term.Atom sym)));
  for arity = 0 to 4 do
    let args = Array.init arity (fun i -> Term.Int i) in
    Alcotest.(check bool) (Printf.sprintf "call/%d" arity) true
      (not_builtin
         (Builtins.call ctx
            (if arity = 0 then Term.Atom sym else Term.Struct (sym, args))));
    Alcotest.(check bool) (Printf.sprintf "call_args/%d" arity) true
      (not_builtin (Builtins.call_args ctx sym arity args));
    Alcotest.(check bool) (Printf.sprintf "hook/%d" arity) false
      (!Ace_lang.Code.builtin_hook sym arity)
  done

let suite =
  [ Alcotest.test_case "unification builtins" `Quick test_unification_builtins;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "type checks" `Quick test_type_checks;
    Alcotest.test_case "term inspection" `Quick test_term_inspection;
    Alcotest.test_case "write" `Quick test_write;
    Alcotest.test_case "existence error" `Quick test_existence_error;
    Alcotest.test_case "dispatch table covers every builtin" `Quick
      test_dispatch_table;
    Alcotest.test_case "late symbol is not a builtin" `Quick test_late_symbol ]
