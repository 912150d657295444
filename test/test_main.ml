(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "ace"
    [ ("symbol", Test_symbol.suite);
      ("term", Test_term.suite);
      ("pp", Test_pp.suite);
      ("trail-unify", Test_trail_unify.suite);
      ("lang", Test_lang.suite);
      ("store", Test_store.suite);
      ("machine", Test_machine.suite);
      ("obs", Test_obs.suite);
      ("prof", Test_prof.suite);
      ("builtins", Test_builtins.suite);
      ("kernel", Test_kernel.suite);
      ("code", Test_code.suite);
      ("seq-engine", Test_seq_engine.suite);
      ("sim", Test_sim.suite);
      ("and-engine", Test_and_engine.suite);
      ("or-engine", Test_or_engine.suite);
      ("deque", Test_deque.suite);
      ("par-or-engine", Test_par_or_engine.suite);
      ("errors", Test_errors.suite);
      ("cancel", Test_cancel.suite);
      ("serve", Test_serve.suite);
      ("check", Test_check.suite);
      ("table", Test_table.suite);
      ("analysis", Test_analysis.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("harness", Test_harness.suite) ]
