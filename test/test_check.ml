(* The correctness-tooling subsystem (lib/check): generator determinism
   and validity, the differential oracle on a smoke budget, the mutation
   smoke test (an injected semantics bug must be caught and shrunk to a
   replayable minimal program), and deterministic chaos schedules on all
   engines. *)

module Gen_prog = Ace_check.Gen_prog
module Oracle = Ace_check.Oracle
module Fuzz = Ace_check.Fuzz
module Chaos = Ace_sched.Chaos
module Config = Ace_machine.Config
module Engine = Ace_core.Engine

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  for seed = 0 to 24 do
    let a = Gen_prog.generate ~seed and b = Gen_prog.generate ~seed in
    Alcotest.(check string)
      (Printf.sprintf "program text stable for seed %d" seed)
      (Gen_prog.program_text a) (Gen_prog.program_text b);
    Alcotest.(check string)
      (Printf.sprintf "query text stable for seed %d" seed)
      (Gen_prog.query_text a) (Gen_prog.query_text b)
  done

(* Every generated program consults and its query parses: the generator
   stays inside the engines' common input language. *)
let test_gen_valid () =
  for seed = 0 to 199 do
    let c = Gen_prog.generate ~seed in
    (try ignore (Ace_lang.Program.consult_string (Gen_prog.program_text c))
     with Ace_lang.Program.Error m ->
       Alcotest.failf "seed %d does not consult: %s" seed m);
    try ignore (Ace_lang.Program.parse_query (Gen_prog.query_text c))
    with Ace_lang.Program.Error m ->
      Alcotest.failf "seed %d query does not parse: %s" seed m
  done

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)
(* ------------------------------------------------------------------ *)

(* CI smoke budget; the 500-case budget runs via `ace_run --check` and the
   nightly workflow runs far more. *)
let test_oracle_smoke () =
  let r = Fuzz.run ~count:40 ~seed:7_000 ~schedules:1 () in
  List.iter
    (fun f -> Format.eprintf "%a" Fuzz.pp_failure f)
    r.Fuzz.r_failures;
  Alcotest.(check int) "no cross-engine discrepancies" 0
    (List.length r.Fuzz.r_failures);
  Alcotest.(check bool) "most cases comparable" true (r.Fuzz.r_agreed >= 30)

(* An injected semantics bug (one engine silently loses a clause) must be
   caught, shrunk to a small program, and replay from the printed seed. *)
let test_mutation_caught () =
  let mutation = { Oracle.m_engine = Engine.Or_parallel; m_drop = 0 } in
  let r = Fuzz.run ~count:6 ~seed:0 ~schedules:1 ~mutation () in
  Alcotest.(check bool) "injected bug caught" true (r.Fuzz.r_failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d shrunk to <= 5 clauses (%d)" f.Fuzz.f_seed
           (Gen_prog.clause_count f.Fuzz.f_shrunk))
        true
        (Gen_prog.clause_count f.Fuzz.f_shrunk <= 5);
      Alcotest.(check bool) "shrunk case still fails" true
        (Oracle.fails ~schedules:1 ~mutation f.Fuzz.f_shrunk);
      (* the printed replay line is sufficient: regenerate from the seed *)
      Alcotest.(check bool) "failure replays from its seed" true
        (Oracle.fails ~schedules:1 ~mutation
           (Gen_prog.generate ~seed:f.Fuzz.f_seed)))
    r.Fuzz.r_failures

(* ------------------------------------------------------------------ *)
(* Chaos: spec round-trip and decision-stream determinism              *)
(* ------------------------------------------------------------------ *)

let test_chaos_spec_roundtrip () =
  let c = Chaos.make ~seed:42 () in
  (match Chaos.of_spec (Chaos.to_spec c) with
  | Error m -> Alcotest.failf "spec does not round-trip: %s" m
  | Ok c' ->
    Alcotest.(check string) "spec round-trips" (Chaos.to_spec c)
      (Chaos.to_spec c');
    let drain a =
      List.init 200 (fun _ ->
          (Chaos.steal_blocked a, Chaos.publish_delayed a, Chaos.jitter a))
    in
    Alcotest.(check bool) "same seed, same decision stream" true
      (drain (Chaos.agent c 3) = drain (Chaos.agent c' 3));
    Alcotest.(check bool) "agents draw distinct streams" true
      (drain (Chaos.agent c 0) <> drain (Chaos.agent c 1)));
  match Chaos.of_spec "off" with
  | Ok c -> Alcotest.(check bool) "off parses to disabled" false (Chaos.enabled c)
  | Error m -> Alcotest.failf "'off' must parse: %s" m

(* ------------------------------------------------------------------ *)
(* Schedule exploration: answers are invariant, replay is exact        *)
(* ------------------------------------------------------------------ *)

let colors =
  "color(r). color(g). color(b).\n\
   pair(X, Y) :- color(X), color(Y).\n"

let canonical r = Ace_check.Canon.strings r.Engine.solutions
let sorted r = Ace_check.Canon.multiset r.Engine.solutions

let seq_sorted program query =
  sorted (Engine.solve_program Engine.Sequential Config.default ~program ~query)

(* Simulated or-engine: one chaos seed = one exact interleaving (same
   discovery order on replay); every seed computes the same multiset. *)
let test_or_schedule_replay () =
  let cfg = Config.all_optimizations ~agents:4 () in
  let run chaos =
    Engine.solve_program
      ~opts:{ Engine.default_opts with Engine.chaos }
      Engine.Or_parallel cfg ~program:colors ~query:"pair(X, Y)"
  in
  let reference = seq_sorted colors "pair(X, Y)" in
  for seed = 1 to 5 do
    let chaos = Chaos.make ~seed () in
    Alcotest.(check (list string))
      (Printf.sprintf "chaos seed %d replays the exact discovery order" seed)
      (canonical (run chaos)) (canonical (run chaos));
    Alcotest.(check (list string))
      (Printf.sprintf "chaos seed %d preserves the answer multiset" seed)
      reference
      (sorted (run chaos))
  done

let independent_and =
  "d(1). d(2). d(3).\nm(X, Y) :- d(X) & d(Y).\n"

let test_and_schedule_invariance () =
  let cfg = Config.all_optimizations ~agents:4 () in
  let reference = seq_sorted independent_and "m(X, Y)" in
  for seed = 1 to 5 do
    let chaos = Chaos.make ~seed () in
    Alcotest.(check (list string))
      (Printf.sprintf "and-engine multiset invariant under chaos seed %d" seed)
      reference
      (sorted
         (Engine.solve_program
            ~opts:{ Engine.default_opts with Engine.chaos }
            Engine.And_parallel cfg ~program:independent_and
            ~query:"m(X, Y)"))
  done

(* The domains engine under injected steal failures, delayed publishes and
   forced preemption: answers must not change. *)
let test_par_chaos_invariance () =
  let cfg = Config.all_optimizations ~agents:4 () in
  let reference = seq_sorted colors "pair(X, Y)" in
  for seed = 1 to 3 do
    let chaos = Chaos.make ~seed () in
    Alcotest.(check (list string))
      (Printf.sprintf "par-or multiset invariant under chaos seed %d" seed)
      reference
      (sorted
         (Engine.solve_program
            ~opts:{ Engine.default_opts with Engine.chaos }
            Engine.Par_or cfg ~program:colors ~query:"pair(X, Y)"))
  done

let test_seq_jitter_invariance () =
  let reference = seq_sorted colors "pair(X, Y)" in
  let chaos = Chaos.make ~seed:9 () in
  Alcotest.(check (list string)) "sequential answers ignore jitter" reference
    (sorted
       (Engine.solve_program
          ~opts:{ Engine.default_opts with Engine.chaos }
          Engine.Sequential Config.default ~program:colors
          ~query:"pair(X, Y)"))

let suite =
  [
    Alcotest.test_case "generator deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "generated programs valid" `Quick test_gen_valid;
    Alcotest.test_case "oracle smoke budget" `Slow test_oracle_smoke;
    Alcotest.test_case "mutation caught and shrunk" `Slow test_mutation_caught;
    Alcotest.test_case "chaos spec round-trip" `Quick test_chaos_spec_roundtrip;
    Alcotest.test_case "or-engine schedule replay" `Quick
      test_or_schedule_replay;
    Alcotest.test_case "and-engine schedule invariance" `Quick
      test_and_schedule_invariance;
    Alcotest.test_case "par-or chaos invariance" `Quick
      test_par_chaos_invariance;
    Alcotest.test_case "seq jitter invariance" `Quick
      test_seq_jitter_invariance;
  ]
