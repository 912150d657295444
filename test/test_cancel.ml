(* Cancellation tokens, session overlays, and cancelled runs.

   Covers the run-lifecycle refactor: the Cancel primitive itself, the
   thread-safety of Database.freeze, assert/retract session overlays
   over a frozen base, and cooperative aborts on all four engines —
   including deterministic poll-budget aborts (the chaos story: a fixed
   budget replays the same abort site) and answer-table consistency
   across a cancelled tabled run. *)

module Cancel = Ace_core.Cancel
module Chaos = Ace_sched.Chaos
module Clause = Ace_lang.Clause
module Config = Ace_machine.Config
module Database = Ace_lang.Database
module Engine = Ace_core.Engine
module Program = Ace_lang.Program
module Table = Ace_lang.Table
open Test_util

(* Infinite backtracking, zero solutions: only a fired token ends it. *)
let spin =
  "gen(z). gen(s(N)) :- gen(N). spin :- gen(N), never(N). never(none)."

let chain n =
  let b = Buffer.create 1024 in
  for i = 0 to n - 2 do
    Printf.bprintf b "edge(n%d, n%d).\n" i (i + 1)
  done;
  Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
  Buffer.add_string b "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The token                                                           *)
(* ------------------------------------------------------------------ *)

let reason = Alcotest.testable
    (Fmt.of_to_string (function
       | Some r -> Cancel.reason_to_string r
       | None -> "none"))
    ( = )

let test_token_none () =
  Alcotest.(check bool) "never fires" false (Cancel.poll Cancel.none);
  Cancel.cancel Cancel.none;
  Alcotest.(check bool) "cancel ignored" false (Cancel.poll Cancel.none);
  Alcotest.check reason "no reason" None (Cancel.fired Cancel.none)

let test_token_request () =
  let t = Cancel.create () in
  Alcotest.(check bool) "fresh" false (Cancel.poll t);
  Alcotest.check reason "unfired" None (Cancel.fired t);
  Cancel.cancel t;
  Alcotest.(check bool) "fires" true (Cancel.poll t);
  Alcotest.check reason "requested" (Some Cancel.Requested) (Cancel.fired t)

let test_token_deadline () =
  let t = Cancel.create ~deadline_ms:15 () in
  Alcotest.(check bool) "before the deadline" false (Cancel.poll t);
  Unix.sleepf 0.03;
  (* the clock check is decimated: poll enough times to cross a stride *)
  let fired = ref false in
  for _ = 1 to 64 do
    if Cancel.poll t then fired := true
  done;
  Alcotest.(check bool) "after the deadline" true !fired;
  Alcotest.check reason "deadline" (Some Cancel.Deadline) (Cancel.fired t)

let test_token_budget () =
  let t = Cancel.at_polls 5 in
  let polls = ref 0 in
  while not (Cancel.poll t) && !polls < 100 do
    incr polls
  done;
  Alcotest.(check int) "fires on the n-th poll" 4 !polls;
  Alcotest.check reason "budget" (Some Cancel.Budget) (Cancel.fired t)

let test_token_first_reason_wins () =
  let t = Cancel.create () in
  Cancel.cancel t;
  Cancel.cancel t;
  Alcotest.check reason "still requested" (Some Cancel.Requested)
    (Cancel.fired t);
  let b = Cancel.at_polls 1 in
  ignore (Cancel.poll b);
  Cancel.cancel b;
  Alcotest.check reason "budget won" (Some Cancel.Budget) (Cancel.fired b)

let test_check_raises () =
  let t = Cancel.create () in
  Cancel.check t;
  Cancel.cancel t;
  Alcotest.check_raises "check raises" Cancel.Cancelled (fun () ->
      Cancel.check t)

(* ------------------------------------------------------------------ *)
(* Freeze thread-safety and overlays                                   *)
(* ------------------------------------------------------------------ *)

let test_freeze_race () =
  (* regression: concurrent freezes of one database must build the
     dispatch cache exactly once and never expose a half-built one *)
  for _ = 1 to 10 do
    let db = Program.db (Program.consult_string "p(1). p(2). q(X) :- p(X).") in
    let domains =
      Array.init 4 (fun _ -> Domain.spawn (fun () -> Database.freeze db))
    in
    Array.iter Domain.join domains;
    Database.freeze db;
    let r =
      Engine.solve Engine.Sequential
        { Config.default with Config.compile = true }
        db (term "q(X)")
    in
    Alcotest.(check int) "solutions after racy freeze" 2
      (List.length r.Engine.solutions)
  done

let session_solutions p sdb query =
  let r = Engine.run ~session:sdb Engine.Sequential Config.default p query in
  List.map Ace_term.Pp.to_string r.Engine.solutions

let test_overlay_semantics () =
  let p = Engine.prepare_string "p(1). p(2)." in
  let s1 = Engine.session p and s2 = Engine.session p in
  Database.assertz s1 (Clause.of_term (term "p(3)"));
  Database.asserta s1 (Clause.of_term (term "p(0)"));
  Alcotest.(check (list string)) "asserta front, assertz back"
    [ "p(0)"; "p(1)"; "p(2)"; "p(3)" ]
    (session_solutions p s1 (term "p(X)"));
  Alcotest.(check (list string)) "other session isolated" [ "p(1)"; "p(2)" ]
    (session_solutions p s2 (term "p(X)"))

let test_overlay_retract () =
  let p = Engine.prepare_string "p(1). p(2)." in
  let s1 = Engine.session p and s2 = Engine.session p in
  Alcotest.(check bool) "retract shadows a base clause" true
    (Database.retract s1 (Clause.of_term (term "p(1)")));
  Alcotest.(check (list string)) "shadowed" [ "p(2)" ]
    (session_solutions p s1 (term "p(X)"));
  Alcotest.(check (list string)) "base untouched" [ "p(1)"; "p(2)" ]
    (session_solutions p s2 (term "p(X)"));
  let r = Engine.run Engine.Sequential Config.default p (term "p(X)") in
  Alcotest.(check int) "shared base direct" 2 (List.length r.Engine.solutions);
  Alcotest.(check bool) "retract misses" false
    (Database.retract s1 (Clause.of_term (term "p(9)")))

(* A predicate a session asserts under a name interned after [prepare]
   is the session's alone: the shared base and a sibling session, which
   never filed that name, report it undefined. *)
let test_overlay_late_name () =
  let p = Engine.prepare_string "p(1)." in
  let s1 = Engine.session p and s2 = Engine.session p in
  Database.assertz s1 (Clause.of_term (term "zz_session_only(7)"));
  let goal = term "zz_session_only(X)" in
  let undefined what ?session () =
    match
      Engine.run ?session Engine.Sequential
        { Config.default with Config.compile = true } p goal
    with
    | _ -> Alcotest.failf "%s: zz_session_only/1 must be undefined" what
    | exception Ace_core.Errors.Engine_error m ->
      Alcotest.(check string) what "undefined predicate zz_session_only/1" m
  in
  Alcotest.(check (list string)) "visible in its session" [ "zz_session_only(7)" ]
    (session_solutions p s1 goal);
  undefined "sibling session" ~session:s2 ();
  undefined "base" ();
  Alcotest.(check bool) "base never filed it" false
    (Database.mem (Engine.database p) "zz_session_only" 1)

(* A session's own predicate index grows with the predicates it
   touches, never with symbol ids: with 20,000 more symbols interned, a
   session is created and asserts its first clause in a few hundred
   words (an array over the ids would take 20,000). *)
let test_overlay_cost () =
  let p = Engine.prepare_string "p(1)." in
  for i = 1 to 20_000 do
    ignore (Ace_term.Symbol.intern (Printf.sprintf "zz_filler_%d" i))
  done;
  let clause = Clause.of_term (term "zz_after_filler(1)") in
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  let s = Engine.session p in
  Database.assertz s clause;
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  let words = minor1 -. minor0 +. (major1 -. major0) in
  if words > 2000. then
    Alcotest.failf "session + first assert: %.0f words > 2000" words;
  Alcotest.(check (list string)) "asserted" [ "zz_after_filler(1)" ]
    (session_solutions p s (term "zz_after_filler(X)"))

(* ------------------------------------------------------------------ *)
(* Cancelled runs                                                      *)
(* ------------------------------------------------------------------ *)

let engines =
  [ (Engine.Sequential, 1); (Engine.And_parallel, 2);
    (Engine.Or_parallel, 2); (Engine.Par_or, 2) ]

(* ------------------------------------------------------------------ *)
(* Re-running one parsed goal                                          *)
(* ------------------------------------------------------------------ *)

let hops =
  {|link(a, b). link(a, c). link(b, c). link(b, d). link(c, d). link(d, a).
hop2(X, Z) :- link(X, Y), link(Y, Z).
stuck(X) :- link(a, X), undefined_here(X).
|}

(* [Engine.run] restores the caller's goal term on every exit, so the
   same parsed goal gives the same answers when run again. *)
let test_rerun_parsed_goal () =
  let p = Engine.prepare_string hops in
  let goal = term "hop2(a, W)" and stuck = term "stuck(X)" in
  let printed = List.map Ace_term.Pp.to_string [ goal; stuck ] in
  let restored what =
    Alcotest.(check (list string)) (what ^ ": goals restored") printed
      (List.map Ace_term.Pp.to_string [ goal; stuck ])
  in
  List.iter
    (fun ((kind, agents), compile) ->
      let name =
        Printf.sprintf "%s%s" (Engine.kind_to_string kind)
          (if compile then "/c" else "")
      in
      let config =
        { (Config.all_optimizations ~agents ()) with Config.compile }
      in
      let runs =
        List.init 3 (fun _ ->
            let r = Engine.run kind config p goal in
            restored (name ^ " exhausted");
            Ace_check.Canon.multiset r.Engine.solutions)
      in
      Alcotest.(check int) (name ^ " three answers") 3
        (List.length (List.hd runs));
      List.iter
        (Alcotest.(check (list string)) (name ^ " same answers again")
           (List.hd runs))
        runs;
      for _ = 1 to 2 do
        let r =
          Engine.run kind { config with Config.max_solutions = Some 1 } p goal
        in
        restored (name ^ " solution limit");
        Alcotest.(check int) (name ^ " one answer") 1
          (List.length r.Engine.solutions)
      done;
      ignore
        (Engine.run
           ~opts:{ Engine.default_opts with Engine.cancel = Cancel.at_polls 3 }
           kind config p goal);
      restored (name ^ " cancelled");
      for _ = 1 to 2 do
        (match Engine.run kind config p stuck with
         | _ -> Alcotest.failf "%s: undefined predicate must raise" name
         | exception Ace_core.Errors.Engine_error _ -> ());
        restored (name ^ " raised")
      done)
    (List.concat_map
       (fun ((kind, _) as e) ->
         List.map (fun compile -> (e, compile)) (Engine.compile_modes kind))
       engines)

(* Engine names round-trip through the one parser every CLI and the
   wire protocol share; anything else is refused with the usage hint. *)
let test_engine_names () =
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Engine.kind_to_string kind ^ " round-trips") true
        (Engine.kind_of_string (Engine.kind_to_string kind) = Ok kind))
    [ Engine.Sequential; Engine.And_parallel; Engine.Or_parallel;
      Engine.Par_or ];
  Alcotest.(check bool) "unknown engine refused" true
    (Engine.kind_of_string "x" = Error "unknown engine \"x\" (seq|and|or|par)")

(* One rule for the solution limit on every engine: 0 answers nothing
   without searching (the goal below never ends on its own), a negative
   limit is refused before any engine runs. *)
let test_limit_rule () =
  let p = Engine.prepare_string spin in
  let goal = term "spin" in
  List.iter
    (fun (kind, agents) ->
      let name = Engine.kind_to_string kind in
      let config max_solutions =
        { Config.default with Config.agents; max_solutions }
      in
      let r = Engine.run kind (config (Some 0)) p goal in
      Alcotest.(check int) (name ^ ": limit 0, no solutions") 0
        (List.length r.Engine.solutions);
      Alcotest.(check int) (name ^ ": limit 0, no clause tried") 0
        r.Engine.stats.Ace_machine.Stats.clause_tries;
      match Engine.run kind (config (Some (-1))) p goal with
      | _ -> Alcotest.failf "%s: a negative limit must be refused" name
      | exception Invalid_argument m ->
        Alcotest.(check string) (name ^ ": refusal names the field")
          "Config: max_solutions must be >= 0" m)
    engines

(* The per-run set-up is O(1): no answer-table shards, no histogram
   buckets and no GC-stat records on a run that needs none of them. *)
let test_run_setup_words () =
  let p = Engine.prepare_string "t." in
  let goal = term "true" in
  List.iter
    (fun compile ->
      let config = { Config.default with Config.compile } in
      ignore (Engine.run Engine.Sequential config p goal);
      let w0 = Gc.minor_words () in
      let r = Engine.run Engine.Sequential config p goal in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) "one solution" 1 (List.length r.Engine.solutions);
      if words > 300. then
        Alcotest.failf "Engine.run of true (compile=%b): %.0f minor words > 300"
          compile words;
      Alcotest.(check bool) "stats count the run's words exactly" true
        (r.Engine.stats.Ace_machine.Stats.minor_words > 0
        && float_of_int r.Engine.stats.Ace_machine.Stats.minor_words <= words))
    [ false; true ]

(* A compiled builtin call allocates nothing: dispatch reads a stored
   option out of an array and unification builds no closure.  Eight
   extra [X \= b] steps per iteration of a 1000-iteration loop would
   cost 8 words each (64,000 in all) if either allocated. *)
let test_builtin_call_words () =
  let p =
    Engine.prepare_string
      "loop(0).\n\
       loop(X) :- X > 0, M is X - 1, loop(M).\n\
       loopb(0).\n\
       loopb(X) :- X > 0, X \\= b, X \\= b, X \\= b, X \\= b, X \\= b, X \\= b,\n\
      \  X \\= b, X \\= b, M is X - 1, loopb(M).\n\
       loopc(0).\n\
       loopc(X) :- X > 0, X > -1, X >= 0, X =< X + 1, X < 1 + X, X =:= X,\n\
      \  X =\\= -1, X > -2, X >= -1, M is X - 1, loopc(M).\n\
       loopi(0).\n\
       loopi(X) :- X > 0, A is X + 1, B is A + 1, C is B + 1, D is C + 1,\n\
      \  E is D + 1, F is E + 1, G is F + 1, H is G + 1, H > A,\n\
      \  M is X - 1, loopi(M).\n"
  in
  let config = { Config.default with Config.compile = true } in
  let words query =
    let goal = term query in
    ignore (Engine.run Engine.Sequential config p goal);
    let w0 = Gc.minor_words () in
    let r = Engine.run Engine.Sequential config p goal in
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) (query ^ ": one solution") 1
      (List.length r.Engine.solutions);
    words
  in
  let base = words "loop(1000)" in
  let extra query = words query -. base in
  let unify = extra "loopb(1000)" in
  if unify >= 8000. then
    Alcotest.failf "8000 compiled X \\= b calls: %.0f extra minor words >= 8000"
      unify;
  (* comparisons evaluate the put descriptors and box nothing *)
  let cmp = extra "loopc(1000)" in
  if cmp >= 8000. then
    Alcotest.failf "8000 compiled comparisons: %.0f extra minor words >= 8000"
      cmp;
  (* [is/2] into a fresh slot boxes its result, 2 words, and nothing
     else; 8000 of them plus 1000 comparisons stay within 2 words each *)
  let is = extra "loopi(1000)" in
  if is > 18000. then
    Alcotest.failf "8000 compiled is/2 calls: %.0f extra minor words > 18000"
      is

(* Compiled clause selection allocates nothing: the dispatch walk reads
   the switched subterm's tag, symbol id, arity or integer straight off
   the call and returns a result the tree holds.  Each iteration of
   [sloop] makes three last calls that [loop] does not, each through one
   switch: on an integer ([si]), an atom ([sa]) and a functor ([sf])
   first argument.  A walk that built a key, a closure or an option per
   switch level would cost at least 2 words a switch, 6,000 over 1,000
   iterations. *)
let test_dispatch_words () =
  let p =
    Engine.prepare_string
      "loop(0).\n\
       loop(X) :- X > 0, M is X - 1, loop(M).\n\
       sloop(0).\n\
       sloop(X) :- X > 0, M is X - 1, si(1, M).\n\
       si(1, M) :- sa(a, M).\n\
       si(2, M) :- sa(b, M).\n\
       sa(a, M) :- sf(f(x), M).\n\
       sa(b, M) :- sf(g(x), M).\n\
       sf(f(_), M) :- sloop(M).\n\
       sf(g(_), M) :- sloop(M).\n"
  in
  let config = { Config.default with Config.compile = true } in
  let run query =
    let goal = term query in
    ignore (Engine.run Engine.Sequential config p goal);
    let w0 = Gc.minor_words () in
    let r = Engine.run Engine.Sequential config p goal in
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) (query ^ ": one solution") 1
      (List.length r.Engine.solutions);
    (words, r.Engine.stats.Ace_machine.Stats.cp_allocs)
  in
  let base, base_cps = run "loop(1000)" in
  let switched, cps = run "sloop(1000)" in
  Alcotest.(check int) "every switch selects one clause" base_cps cps;
  let extra = switched -. base in
  if extra <> 0. then
    Alcotest.failf "3000 switched calls: %.0f extra minor words, not 0" extra

(* A matched fact continues with the caller's continuation: nothing is
   stacked for its empty body, and resuming the caller's compiled body
   builds no closure.  Backtracking over 100 compiled facts reads 1,921
   words, the run's set-up and 16 words per retry; an empty segment
   pushed per matched fact would add 600, a 12-word closure per
   resumption 1,200. *)
let test_fact_scan_words () =
  let b = Buffer.create 1024 in
  for i = 1 to 100 do
    Printf.bprintf b "c(%d).\n" i
  done;
  Buffer.add_string b "q :- c(_), fail.\n";
  let p = Engine.prepare_string (Buffer.contents b) in
  let config = { Config.default with Config.compile = true } in
  let goal = term "q" in
  ignore (Engine.run Engine.Sequential config p goal);
  let w0 = Gc.minor_words () in
  let r = Engine.run Engine.Sequential config p goal in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "no solution" 0 (List.length r.Engine.solutions);
  if words > 2000. then
    Alcotest.failf "q over 100 compiled facts: %.0f minor words > 2000" words

let test_deadline_all_engines () =
  List.iter
    (fun (kind, agents) ->
      let name = Engine.kind_to_string kind in
      let config =
        { (Config.all_optimizations ~agents ()) with Config.compile = true }
      in
      let cancel = Cancel.create ~deadline_ms:50 () in
      let t0 = Unix.gettimeofday () in
      let r =
        Engine.solve_program ~opts:{ Engine.default_opts with Engine.cancel }
          kind config ~program:spin ~query:"spin"
      in
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Alcotest.check reason (name ^ " cancelled") (Some Cancel.Deadline)
        r.Engine.cancelled;
      Alcotest.(check int) (name ^ " no solutions") 0
        (List.length r.Engine.solutions);
      (* bounded interval after the deadline: generous for loaded CI *)
      Alcotest.(check bool) (name ^ " stops promptly") true (ms < 5000.0))
    engines

let test_budget_partial_and_deterministic () =
  let program = chain 30 and query = "path(n0, X)" in
  let full =
    Ace_check.Canon.multiset
      (Engine.solve_program Engine.Sequential Config.default ~program ~query)
        .Engine.solutions
  in
  List.iter
    (fun (kind, agents) ->
      let name = Engine.kind_to_string kind in
      let config =
        { (Config.all_optimizations ~agents ()) with Config.compile = true }
      in
      let run () =
        Engine.solve_program
          ~opts:{ Engine.default_opts with Engine.cancel = Cancel.at_polls 60 }
          kind config ~program
          ~query
      in
      let r1 = run () in
      Alcotest.check reason (name ^ " budget fired") (Some Cancel.Budget)
        r1.Engine.cancelled;
      let part = Ace_check.Canon.multiset r1.Engine.solutions in
      Alcotest.(check bool) (name ^ " proper partial") true
        (List.length part < List.length full);
      (* every recorded solution was complete when recorded *)
      List.iter
        (fun s ->
          Alcotest.(check bool) (name ^ " partial within full") true
            (List.mem s full))
        part;
      (* the deterministic engines replay the same abort site *)
      if kind <> Engine.Par_or then begin
        let r2 = run () in
        Alcotest.(check (list string)) (name ^ " deterministic abort")
          (List.map Ace_term.Pp.to_string r1.Engine.solutions)
          (List.map Ace_term.Pp.to_string r2.Engine.solutions)
      end)
    engines

let test_budget_deterministic_under_chaos () =
  (* fixed chaos seed + fixed poll budget => identical partial run *)
  let program = chain 30 and query = "path(n0, X)" in
  let config =
    { (Config.all_optimizations ~agents:2 ()) with Config.compile = true }
  in
  List.iter
    (fun kind ->
      let run () =
        Engine.solve_program
          ~opts:
            { Engine.default_opts with
              Engine.chaos = Chaos.make ~seed:7 ();
              cancel = Cancel.at_polls 60 }
          kind config ~program ~query
      in
      let r1 = run () and r2 = run () in
      Alcotest.check reason
        (Engine.kind_to_string kind ^ " chaos budget fired")
        (Some Cancel.Budget) r1.Engine.cancelled;
      Alcotest.(check (list string))
        (Engine.kind_to_string kind ^ " chaos deterministic")
        (List.map Ace_term.Pp.to_string r1.Engine.solutions)
        (List.map Ace_term.Pp.to_string r2.Engine.solutions))
    [ Engine.And_parallel; Engine.Or_parallel ]

let tabled_chain =
  ":- table(path/2).\n" ^ chain 25

let test_cancelled_table_consistent () =
  (* a budget abort mid-evaluation leaves the shared table reusable: a
     second run over the same table completes and the answer set is the
     full one (publication is monotone; incomplete entries re-evaluate) *)
  let program = tabled_chain and query = "path(n0, X)" in
  let full =
    Ace_check.Canon.multiset
      (Engine.solve_program Engine.Sequential Config.default ~program ~query)
        .Engine.solutions
  in
  let table = Table.create () in
  let r1 =
    Engine.solve_program
      ~opts:
        { Engine.default_opts with
          Engine.table = Some table;
          cancel = Cancel.at_polls 40 }
      Engine.Sequential Config.default ~program ~query
  in
  Alcotest.check reason "tabled run aborted" (Some Cancel.Budget)
    r1.Engine.cancelled;
  List.iter
    (fun e ->
      if Table.is_complete e then
        Alcotest.(check bool) "complete entries keep their answers" true
          (Table.answer_count e > 0))
    (Table.entries table);
  let r2 =
    Engine.solve_program
      ~opts:{ Engine.default_opts with Engine.table = Some table }
      Engine.Sequential Config.default ~program ~query
  in
  Alcotest.check reason "second run completes" None r2.Engine.cancelled;
  Alcotest.(check (list string)) "full answers from the reused table" full
    (Ace_check.Canon.multiset r2.Engine.solutions)

let test_par_cancel_no_leak () =
  (* a cancelled par run must join all its domains: three back-to-back
     cancelled runs complete (leaked domains would accumulate or hang) *)
  let config =
    { (Config.all_optimizations ~agents:2 ()) with Config.compile = true }
  in
  for _ = 1 to 3 do
    let r =
      Engine.solve_program
        ~opts:
          { Engine.default_opts with
            Engine.cancel = Cancel.create ~deadline_ms:30 () }
        Engine.Par_or config ~program:spin ~query:"spin"
    in
    Alcotest.(check bool) "cancelled" true (r.Engine.cancelled <> None)
  done

(* A failed [Domain.spawn] must not leave the domains spawned before it
   running: they would steal the root task and run the query unjoined.
   The third spawn of a 4-agent run fails; both domains started before
   it must have finished by the time the failure reaches [Engine.run].
   The deadline only bounds a leaked domain's life. *)
let test_par_spawn_failure_joins () =
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let calls = ref 0 in
  let failing body =
    incr calls;
    if !calls = 3 then failwith "spawn 3 refused";
    Atomic.incr started;
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.incr finished) body)
  in
  let config = { Config.default with Config.agents = 4; compile = true } in
  Fun.protect
    ~finally:(fun () -> Ace_core.Par_or_engine.spawn := Domain.spawn)
    (fun () ->
      Ace_core.Par_or_engine.spawn := failing;
      match
        Engine.solve_program
          ~opts:
            { Engine.default_opts with
              Engine.cancel = Cancel.create ~deadline_ms:5000 () }
          Engine.Par_or config ~program:spin ~query:"spin"
      with
      | _ -> Alcotest.fail "the run survived a failed spawn"
      | exception Failure msg ->
        Alcotest.(check string) "the spawn failure reaches Engine.run"
          "spawn 3 refused" msg);
  Alcotest.(check int) "domains started" 2 (Atomic.get started);
  Alcotest.(check int) "started domains joined" 2 (Atomic.get finished)

let test_requested_cancel_from_thread () =
  (* cancel fired from another thread mid-run: the seq engine aborts *)
  let cancel = Cancel.create () in
  let th =
    Thread.create
      (fun () ->
        Unix.sleepf 0.03;
        Cancel.cancel cancel)
      ()
  in
  let r =
    Engine.solve_program ~opts:{ Engine.default_opts with Engine.cancel }
      Engine.Sequential Config.default ~program:spin ~query:"spin"
  in
  Thread.join th;
  Alcotest.check reason "requested" (Some Cancel.Requested) r.Engine.cancelled

let suite =
  [
    Alcotest.test_case "token: none" `Quick test_token_none;
    Alcotest.test_case "token: request" `Quick test_token_request;
    Alcotest.test_case "token: deadline" `Quick test_token_deadline;
    Alcotest.test_case "token: poll budget" `Quick test_token_budget;
    Alcotest.test_case "token: first reason wins" `Quick
      test_token_first_reason_wins;
    Alcotest.test_case "token: check raises" `Quick test_check_raises;
    Alcotest.test_case "freeze: concurrent freezes" `Quick test_freeze_race;
    Alcotest.test_case "overlay: assert ordering + isolation" `Quick
      test_overlay_semantics;
    Alcotest.test_case "overlay: retract shadows base" `Quick
      test_overlay_retract;
    Alcotest.test_case "overlay: late-named predicate stays private" `Quick
      test_overlay_late_name;
    Alcotest.test_case "overlay: cost follows the predicates touched" `Quick
      test_overlay_cost;
    Alcotest.test_case "run: a parsed goal runs again" `Quick
      test_rerun_parsed_goal;
    Alcotest.test_case "run: engine names round-trip" `Quick test_engine_names;
    Alcotest.test_case "run: one solution-limit rule" `Quick test_limit_rule;
    Alcotest.test_case "run: set-up allocation" `Quick test_run_setup_words;
    Alcotest.test_case "run: builtin calls allocate nothing" `Quick
      test_builtin_call_words;
    Alcotest.test_case "run: a matched fact stacks nothing" `Quick
      test_fact_scan_words;
    Alcotest.test_case "run: compiled dispatch allocates nothing" `Quick
      test_dispatch_words;
    Alcotest.test_case "cancel: deadline on all engines" `Quick
      test_deadline_all_engines;
    Alcotest.test_case "cancel: budget partial + deterministic" `Quick
      test_budget_partial_and_deterministic;
    Alcotest.test_case "cancel: deterministic under chaos" `Quick
      test_budget_deterministic_under_chaos;
    Alcotest.test_case "cancel: table consistent across abort" `Quick
      test_cancelled_table_consistent;
    Alcotest.test_case "cancel: par run joins its domains" `Quick
      test_par_cancel_no_leak;
    Alcotest.test_case "cancel: a failed spawn joins its domains" `Quick
      test_par_spawn_failure_joins;
    Alcotest.test_case "cancel: requested from another thread" `Quick
      test_requested_cancel_from_thread;
  ]
