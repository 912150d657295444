(* Builtin error paths on all four engines: type errors, arithmetic
   domain errors and unbound-variable arithmetic must surface as the SAME
   error everywhere — a parallel engine must not turn an error into a
   silent failure (or vice versa).

   Messages may embed fresh-variable ids (_G17), which legitimately differ
   between engines; they are normalized away before comparison. *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Oracle = Ace_check.Oracle

(* [late_is/1] and [late_lt/0] reach an unknown operator from a clause
   body, which compiled code evaluates off its put descriptors. *)
let program =
  "q(0).\n\
   late_is(X) :- X is zz_late(1, 2).\n\
   late_lt :- 1 < zz_late(2).\n"

(* _G<digits> -> _G: variable ids are renaming-dependent. *)
let normalize msg =
  let b = Buffer.create (String.length msg) in
  let n = String.length msg in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && msg.[!i] = '_' && msg.[!i + 1] = 'G' then begin
      Buffer.add_string b "_G";
      i := !i + 2;
      while !i < n && msg.[!i] >= '0' && msg.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char b msg.[!i];
      incr i
    end
  done;
  Buffer.contents b

let engines =
  [
    ("seq", Engine.Sequential, Config.default);
    ("and", Engine.And_parallel, Config.all_optimizations ~agents:2 ());
    ("or", Engine.Or_parallel, Config.all_optimizations ~agents:2 ());
    ("par", Engine.Par_or, Config.all_optimizations ~agents:2 ());
    (* the domains engine again with and-parallel execution on: errors
       raised inside parcall slots must cross the frame and the domain
       boundary unchanged *)
    ("par+and", Engine.Par_or,
     { (Config.all_optimizations ~agents:2 ()) with Config.par_and = true });
  ]

(* Runs [query] on every engine in each of its execution modes (the
   sequential engine interpreted and compiled); asserts each raises, with
   identical normalized messages, and that the message mentions
   [expect]. *)
let check_error ~expect query () =
  let outcomes =
    List.concat_map
      (fun (name, kind, config) ->
        List.map
          (fun compile ->
            ( (if compile then name ^ "/c" else name),
              Oracle.run_engine kind { config with Config.compile } ~program
                ~query ))
          (Engine.compile_modes kind))
      engines
  in
  let reference =
    match List.assoc "seq" outcomes with
    | Oracle.Error m -> normalize m
    | Oracle.Solutions ss ->
      Alcotest.failf "seq did not error on %s (%d solutions)" query
        (List.length ss)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "seq message %S mentions %S" reference expect)
    true (contains reference expect);
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Oracle.Error m ->
        Alcotest.(check string)
          (Printf.sprintf "%s error matches seq on %s" name query)
          reference (normalize m)
      | Oracle.Solutions ss ->
        Alcotest.failf "%s did not error on %s (%d solutions)" name query
          (List.length ss))
    outcomes

(* The parallel engines reject the control constructs they do not
   implement with one message, the kernel's, naming the engine; seq
   answers all four. *)
let test_unsupported_control () =
  let program = "p.\n" in
  let cases =
    [ ("!", "!", 1); ("(p ; p)", "p ; p", 2); ("(p -> p ; p)", "p -> p ; p", 1);
      ("\\+ p", "\\+ p", 0) ]
  in
  List.iter
    (fun (query, shown, count) ->
      List.iter
        (fun compile ->
          match
            Oracle.run_engine Engine.Sequential
              { Config.default with Config.compile } ~program ~query
          with
          | Oracle.Solutions ss ->
            Alcotest.(check int) ("seq answers " ^ query) count
              (List.length ss)
          | Oracle.Error m -> Alcotest.failf "seq on %s: %s" query m)
        (Engine.compile_modes Engine.Sequential);
      List.iter
        (fun (kind, name) ->
          let expected =
            Printf.sprintf "control construct %s not supported inside %s" shown
              name
          in
          match Oracle.run_engine kind Config.default ~program ~query with
          | Oracle.Error m -> Alcotest.(check string) query expected m
          | Oracle.Solutions _ ->
            Alcotest.failf "%s accepted %s" (Engine.kind_to_string kind) query)
        [ (Engine.And_parallel, "the and-parallel engine");
          (Engine.Or_parallel, "the or-parallel engine");
          (Engine.Par_or, "the multicore engine") ])
    cases

(* A parallel conjunction built at run time is a conjunction on every
   engine, as a static one is. *)
let test_dynamic_amp () =
  let program =
    "p(1). p(2). q(3).\nt(X, Y) :- G = (p(X) & q(Y)), call(G).\n"
  in
  List.iter
    (fun (name, kind, config) ->
      List.iter
        (fun compile ->
          match
            Oracle.run_engine kind { config with Config.compile } ~program
              ~query:"t(X, Y)"
          with
          | Oracle.Solutions ss ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s (compile=%b)" name compile)
              [ "t(1,3)"; "t(2,3)" ] ss
          | Oracle.Error m -> Alcotest.failf "%s: %s" name m)
        (Engine.compile_modes kind))
    engines

let suite =
  [
    Alcotest.test_case "division by zero" `Quick
      (check_error ~expect:"division by zero" "X is 1 // 0");
    Alcotest.test_case "unbound variable in arithmetic" `Quick
      (check_error ~expect:"unbound variable" "X is Y + 1");
    Alcotest.test_case "unknown arithmetic constant" `Quick
      (check_error ~expect:"unknown constant" "X is foo + 1");
    Alcotest.test_case "non-integral division" `Quick
      (check_error ~expect:"non-integral" "X is 7 / 2");
    Alcotest.test_case "undefined predicate" `Quick
      (check_error ~expect:"undefined" "no_such_pred(1)");
    Alcotest.test_case "functor/3 insufficiently instantiated" `Quick
      (check_error ~expect:"insufficiently instantiated" "functor(F, N, A)");
    Alcotest.test_case "arg/3 insufficiently instantiated" `Quick
      (check_error ~expect:"insufficiently instantiated" "arg(N, T, A)");
    (* names interned after the builtin and operator tables were built *)
    Alcotest.test_case "unknown binary operator" `Quick
      (check_error ~expect:"arithmetic: unknown operator zz_late/2"
         "X is zz_late(1, 2)");
    Alcotest.test_case "unknown operator in a comparison" `Quick
      (check_error ~expect:"arithmetic: unknown operator zz_late/1"
         "1 < zz_late(2)");
    Alcotest.test_case "unknown operator in a clause body" `Quick
      (check_error ~expect:"arithmetic: unknown operator zz_late/2"
         "late_is(X)");
    Alcotest.test_case "unknown operator in a body comparison" `Quick
      (check_error ~expect:"arithmetic: unknown operator zz_late/1" "late_lt");
    Alcotest.test_case "undefined predicate, fresh name" `Quick
      (check_error ~expect:"undefined predicate zz_late_pred/1"
         "zz_late_pred(1)");
    Alcotest.test_case "unsupported control constructs" `Quick
      test_unsupported_control;
    Alcotest.test_case "dynamic '&' on every engine" `Quick test_dynamic_amp;
  ]
