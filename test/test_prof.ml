(* Per-predicate profiler: port semantics on a hand-driven shard,
   disabled no-ops, cost attribution to the stack top, the three export
   views, and cross-engine agreement of the 4-port counts on a
   deterministic program. *)

module Prof = Ace_obs.Prof
module Json = Ace_obs.Json
module Stats = Ace_machine.Stats
module Symbol = Ace_term.Symbol
module Config = Ace_machine.Config
module Engine = Ace_core.Engine

let key name arity = Prof.key (Symbol.intern name) arity

let row_of prof name =
  List.find_opt (fun r -> r.Prof.r_name = name) (Prof.rows prof)

let get prof name =
  match row_of prof name with
  | Some r -> r
  | None -> Alcotest.failf "no profile row for %s" name

(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  Alcotest.(check bool) "disabled profile" false (Prof.enabled Prof.disabled);
  Alcotest.(check bool) "null shard is dead" false (Prof.live Prof.null);
  let sh = Prof.shard Prof.disabled ~dom:0 () in
  Alcotest.(check bool) "disabled shard is null" false (Prof.live sh);
  (* every hook is a no-op on the null shard *)
  let k = key "p" 1 in
  Prof.call sh k;
  Prof.exit_key sh k;
  Prof.exit_top sh;
  Prof.redo sh k;
  Prof.fail sh k;
  Prof.builtin sh k ~ok:true;
  Prof.spawned sh 3;
  Prof.stole sh k;
  Prof.copied sh 100;
  Prof.slots sh 2;
  Alcotest.(check int) "no rows" 0 (List.length (Prof.rows Prof.disabled))

let test_key_packing () =
  Alcotest.(check string) "key_name round-trips" "foo/3"
    (Prof.key_name (key "foo" 3));
  Alcotest.(check bool) "arity distinguishes" true (key "foo" 1 <> key "foo" 2);
  Alcotest.(check bool) "symbol distinguishes" true (key "a" 1 <> key "b" 1)

let test_port_semantics () =
  let prof = Prof.create () in
  let sh = Prof.shard prof ~dom:0 () in
  let p = key "p" 1 and q = key "q" 2 in
  (* p calls q; q exits; p retries once, then fails *)
  Prof.call sh p;
  Prof.call sh q;
  Prof.exit_key sh q;
  Prof.redo sh p;
  Prof.fail sh p;
  let rp = get prof "p/1" and rq = get prof "q/2" in
  Alcotest.(check int) "p calls" 1 rp.Prof.r_calls;
  Alcotest.(check int) "p redos" 1 rp.Prof.r_redos;
  Alcotest.(check int) "p fails" 1 rp.Prof.r_fails;
  Alcotest.(check int) "p exits" 0 rp.Prof.r_exits;
  Alcotest.(check int) "q calls" 1 rq.Prof.r_calls;
  Alcotest.(check int) "q exits" 1 rq.Prof.r_exits;
  Alcotest.(check int) "q redos" 0 rq.Prof.r_redos

let test_builtin_pair () =
  let prof = Prof.create () in
  let sh = Prof.shard prof ~dom:0 () in
  let p = key "p" 0 and b = key "is" 2 in
  Prof.call sh p;
  Prof.builtin sh b ~ok:true;
  Prof.builtin sh b ~ok:false;
  let rb = get prof "is/2" in
  Alcotest.(check int) "builtin calls" 2 rb.Prof.r_calls;
  Alcotest.(check int) "builtin exits" 1 rb.Prof.r_exits;
  Alcotest.(check int) "builtin fails" 1 rb.Prof.r_fails;
  (* builtins never win top_hotspot; arity 0 renders as the bare atom *)
  match Prof.top_hotspot prof with
  | Some r -> Alcotest.(check string) "hotspot is the user pred" "p" r.Prof.r_name
  | None -> Alcotest.fail "expected a hotspot"

let test_cost_attribution () =
  let clock = ref 0 in
  let stats = Stats.create () in
  let prof = Prof.create () in
  let sh = Prof.shard prof ~dom:0 ~stats ~clock:(fun () -> !clock) () in
  let p = key "p" 1 and q = key "q" 1 in
  Prof.call sh p;
  (* work inside p before it calls q: exclusive to p *)
  clock := 10;
  stats.Stats.clause_tries <- 4;
  Prof.call sh q;
  (* work inside q: exclusive to q *)
  clock := 15;
  stats.Stats.clause_tries <- 7;
  Prof.exit_key sh q;
  let rp = get prof "p/1" and rq = get prof "q/1" in
  Alcotest.(check int) "p exclusive cycles" 10 rp.Prof.r_cycles;
  Alcotest.(check int) "q exclusive cycles" 5 rq.Prof.r_cycles;
  Alcotest.(check int) "p exclusive tries" 4 rp.Prof.r_tries;
  Alcotest.(check int) "q exclusive tries" 3 rq.Prof.r_tries

let test_parallel_attribution () =
  let prof = Prof.create () in
  let sh = Prof.shard prof ~dom:0 () in
  let p = key "p" 1 in
  Prof.call sh p;
  Prof.spawned sh 3;
  Prof.slots sh 3;
  Prof.copied sh 120;
  Prof.stole sh p;
  let rp = get prof "p/1" in
  Alcotest.(check int) "tasks" 3 rp.Prof.r_tasks;
  Alcotest.(check int) "slots" 3 rp.Prof.r_slots;
  Alcotest.(check int) "copied cells" 120 rp.Prof.r_copied;
  Alcotest.(check int) "steals" 1 rp.Prof.r_steals

let test_depth_cap () =
  let prof = Prof.create () in
  let sh = Prof.shard prof ~dom:0 () in
  let p = key "deep" 1 in
  for _ = 1 to 200 do
    Prof.call sh p
  done;
  let rp = get prof "deep/1" in
  Alcotest.(check int) "all calls counted" 200 rp.Prof.r_calls;
  match Json.parse (Json.to_string (Prof.to_json prof)) with
  | Error m -> Alcotest.failf "profile json: %s" m
  | Ok v -> (
    match Json.member "truncated" v with
    | Some (Json.Num n) ->
      Alcotest.(check bool) "beyond-cap frames counted as truncated" true
        (n > 0.)
    | _ -> Alcotest.fail "no truncated field")

(* ------------------------------------------------------------------ *)
(* Engine integration                                                  *)
(* ------------------------------------------------------------------ *)

let nrev_program =
  {|
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
  |}

let run_profiled ?(agents = 1) ?(compile = true) kind =
  let prof = Prof.create () in
  let config = { Config.default with Config.agents; compile } in
  let r =
    Engine.solve_program
      ~opts:{ Engine.default_opts with Engine.prof }
      kind config ~program:nrev_program
      ~query:"nrev([a,b,c,d,e,f,g,h,i,j], R)."
  in
  Alcotest.(check int)
    (Printf.sprintf "%s solves" (Engine.kind_to_string kind))
    1
    (List.length r.Engine.solutions);
  prof

let test_engines_agree_on_ports () =
  (* nrev(10): 11 nrev calls, 55 app calls, deterministic on every
     engine and in each of its execution modes *)
  let check_counts prof label =
    let ra = get prof "app/3" and rn = get prof "nrev/2" in
    Alcotest.(check int) (label ^ ": app calls") 55 ra.Prof.r_calls;
    Alcotest.(check int) (label ^ ": app fact exits") 10 ra.Prof.r_exits;
    Alcotest.(check int) (label ^ ": nrev calls") 11 rn.Prof.r_calls;
    Alcotest.(check int) (label ^ ": no redos") 0 rn.Prof.r_redos;
    match Prof.top_hotspot prof with
    | Some r -> Alcotest.(check string) (label ^ ": hotspot") "app/3" r.Prof.r_name
    | None -> Alcotest.failf "%s: no hotspot" label
  in
  List.iter
    (fun (kind, agents) ->
      List.iter
        (fun compile ->
          check_counts
            (run_profiled ~agents ~compile kind)
            (Printf.sprintf "%s%s@%d" (Engine.kind_to_string kind)
               (if compile then "/c" else "")
               agents))
        (Engine.compile_modes kind))
    [ (Engine.Sequential, 1); (Engine.And_parallel, 2);
      (Engine.Or_parallel, 2); (Engine.Par_or, 2) ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_report_and_json () =
  let prof = run_profiled Engine.Sequential in
  let report = Prof.report prof in
  Alcotest.(check bool) "report mentions app/3" true (contains report "app/3");
  match Json.parse (Json.to_string (Prof.to_json prof)) with
  | Error m -> Alcotest.failf "profile json invalid: %s" m
  | Ok v ->
    let preds =
      Option.bind (Json.member "predicates" v) Json.to_list
      |> Option.value ~default:[]
    in
    Alcotest.(check bool) "json has predicate rows" true (List.length preds >= 2);
    let edges =
      Option.bind (Json.member "edges" v) Json.to_list
      |> Option.value ~default:[]
    in
    (* nrev -> nrev, nrev -> app, app -> app at least *)
    Alcotest.(check bool) "json has call-graph edges" true
      (List.length edges >= 3)

(* Folded-stack golden: a deterministic two-level program whose calling
   contexts are known exactly.  Every line must be "path N" with a
   ';'-separated path rooted at $root and a positive integral cost. *)
let test_folded_golden () =
  let prof = Prof.create () in
  let config = { Config.default with Config.agents = 1; compile = true } in
  ignore
    (Engine.solve_program
       ~opts:{ Engine.default_opts with Engine.prof }
       Engine.Sequential config
       ~program:"leaf(1).\nleaf(2).\nmid(X) :- leaf(X).\ntop(X) :- mid(X)."
       ~query:"top(X).");
  let folded = Prof.to_folded prof in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' folded)
  in
  Alcotest.(check bool) "has sample paths" true (List.length lines > 0);
  let paths =
    List.map
      (fun line ->
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "folded line %S has no cost column" line
        | Some i ->
          let path = String.sub line 0 i in
          let cost =
            String.sub line (i + 1) (String.length line - i - 1)
          in
          (match int_of_string_opt cost with
           | Some n when n > 0 -> ()
           | _ -> Alcotest.failf "folded line %S: bad cost %S" line cost);
          Alcotest.(check bool)
            (Printf.sprintf "path %S rooted at $root" path)
            true
            (path = "$root" || String.length path > 6
                               && String.sub path 0 6 = "$root;");
          path)
      lines
  in
  Alcotest.(check bool) "the known hot path is present" true
    (List.mem "$root;top/1;mid/1;leaf/1" paths);
  (* paths are unique (aggregated, not repeated) *)
  Alcotest.(check int) "paths unique"
    (List.length paths)
    (List.length (List.sort_uniq compare paths))

(* Profiling must not perturb results: same program, profiled and not,
   identical solutions and identical engine stats. *)
let test_profiling_is_pure () =
  let run profiled =
    let prof = if profiled then Prof.create () else Prof.disabled in
    let config = { Config.default with Config.agents = 1; compile = true } in
    Engine.solve_program
      ~opts:{ Engine.default_opts with Engine.prof }
      Engine.Sequential config ~program:nrev_program
      ~query:"nrev([a,b,c], R)."
  in
  let a = run false and b = run true in
  Alcotest.(check (list string)) "same solutions"
    (List.map (Format.asprintf "%a" Ace_term.Pp.pp) a.Engine.solutions)
    (List.map (Format.asprintf "%a" Ace_term.Pp.pp) b.Engine.solutions);
  Alcotest.(check int) "same unify steps" a.Engine.stats.Stats.unify_steps
    b.Engine.stats.Stats.unify_steps;
  Alcotest.(check int) "same clause tries" a.Engine.stats.Stats.clause_tries
    b.Engine.stats.Stats.clause_tries

let suite =
  [ Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
    Alcotest.test_case "key packing" `Quick test_key_packing;
    Alcotest.test_case "port semantics" `Quick test_port_semantics;
    Alcotest.test_case "builtin call+exit pair" `Quick test_builtin_pair;
    Alcotest.test_case "cost attribution" `Quick test_cost_attribution;
    Alcotest.test_case "parallel attribution" `Quick test_parallel_attribution;
    Alcotest.test_case "depth cap" `Quick test_depth_cap;
    Alcotest.test_case "engines agree on ports" `Quick
      test_engines_agree_on_ports;
    Alcotest.test_case "report and json views" `Quick test_report_and_json;
    Alcotest.test_case "folded golden" `Quick test_folded_golden;
    Alcotest.test_case "profiling is pure" `Quick test_profiling_is_pure ]
