(* Cost model, statistics and configuration. *)

module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
open Test_util

let test_cost_model_positive () =
  let c = Cost.default in
  let all =
    [ c.Cost.unify_step; c.Cost.index_lookup; c.Cost.clause_try; c.Cost.builtin;
      c.Cost.arith_op; c.Cost.trail_push; c.Cost.untrail; c.Cost.cp_alloc;
      c.Cost.cp_restore; c.Cost.backtrack_node; c.Cost.frame_alloc;
      c.Cost.slot_init; c.Cost.marker_alloc; c.Cost.frame_linear_scan;
      c.Cost.frame_unwind; c.Cost.kill_signal; c.Cost.copy_cell;
      c.Cost.copy_setup; c.Cost.or_scan_node; c.Cost.lao_update;
      c.Cost.steal_poll; c.Cost.steal_grab; c.Cost.task_switch;
      c.Cost.runtime_check ]
  in
  Alcotest.(check bool) "all weights positive" true (List.for_all (fun x -> x > 0) all)

let test_cost_model_calibration_invariants () =
  let c = Cost.default in
  (* the relations the experiment shapes rely on *)
  Alcotest.(check bool) "LAO update dearer than private alloc" true
    (c.Cost.lao_update > c.Cost.cp_alloc);
  Alcotest.(check bool) "frame dearer than marker" true
    (c.Cost.frame_alloc > c.Cost.marker_alloc);
  Alcotest.(check bool) "flat scan cheaper than frame unwind" true
    (c.Cost.frame_linear_scan < c.Cost.frame_unwind);
  Alcotest.(check bool) "runtime checks are cheap" true
    (c.Cost.runtime_check <= c.Cost.unify_step)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  a.Stats.frames <- 3;
  a.Stats.max_frame_nesting <- 5;
  b.Stats.frames <- 4;
  b.Stats.max_frame_nesting <- 2;
  b.Stats.lpco_hits <- 7;
  Stats.merge_into ~into:a b;
  Alcotest.(check int) "sums counters" 7 a.Stats.frames;
  Alcotest.(check int) "max of nesting" 5 a.Stats.max_frame_nesting;
  Alcotest.(check int) "merges hits" 7 a.Stats.lpco_hits

let test_stats_fields_cover_record () =
  let s = Stats.create () in
  s.Stats.unify_steps <- 1;
  s.Stats.stack_words <- 2;
  let fields = Stats.fields s in
  Alcotest.(check bool) "fields non-empty" true (List.length fields > 20);
  Alcotest.(check (option int)) "first field" (Some 1)
    (List.assoc_opt "unify_steps" fields);
  Alcotest.(check (option int)) "last field" (Some 2)
    (List.assoc_opt "stack_words" fields)

(* Reflective completeness: every record field of Stats.t must be
   reachable through [fields] (and therefore through of_fields,
   merge_into, to_json and pp ~verbose, which the tests below pin to the
   same list).  Stats.t is all-int, so its runtime representation is a
   flat block whose size is the field count — a new counter that is not
   added to [fields] fails here immediately. *)
let test_stats_fields_reflect_record () =
  let s = Stats.create () in
  Alcotest.(check int) "fields covers every record field"
    (Obj.size (Obj.repr s))
    (List.length (Stats.fields s));
  (* distinct values survive an of_fields round-trip field-for-field *)
  let numbered =
    List.mapi (fun i (name, _) -> (name, i + 1)) (Stats.fields s)
  in
  let s' = Stats.of_fields numbered in
  Alcotest.(check bool) "of_fields sets every field" true
    (Stats.fields s' = numbered);
  (* to_json exports every field, with the round-tripped values *)
  (match Ace_obs.Json.parse (Stats.to_json s') with
   | Error msg -> Alcotest.failf "Stats.to_json: %s" msg
   | Ok v ->
     List.iter
       (fun (name, n) ->
         Alcotest.(check (option int))
           (Printf.sprintf "to_json exports %s" name)
           (Some n)
           (match Ace_obs.Json.member name v with
            | Some (Ace_obs.Json.Num f) -> Some (int_of_float f)
            | _ -> None))
       numbered);
  (* pp ~verbose prints every field name *)
  let verbose =
    Format.asprintf "@[<v>%a@]" (fun ppf -> Stats.pp ~verbose:true ppf) s'
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "pp ~verbose prints %s" name)
        true (contains verbose name))
    numbered;
  (* merge_into touches every summed counter: merging the numbered stats
     into a fresh record reproduces at least the summed fields, and no
     field of the merge result stays at 0 (max-fields included, since
     every input is positive) *)
  let fresh = Stats.create () in
  Stats.merge_into ~into:fresh s';
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "merge_into covers %s" name)
        true
        (v > 0))
    (Stats.fields fresh)

let test_stats_json_roundtrip () =
  let s = Stats.create () in
  s.Stats.unify_steps <- 12345;
  s.Stats.lao_hits <- 7;
  s.Stats.stack_words <- 99;
  let json = Stats.to_json s in
  (match Ace_obs.Json.parse json with
   | Error msg -> Alcotest.failf "Stats.to_json is not valid JSON: %s" msg
   | Ok v ->
     Alcotest.(check bool) "lao_hits in JSON" true
       (Ace_obs.Json.member "lao_hits" v = Some (Ace_obs.Json.int 7)));
  let s' = Stats.of_fields (Stats.fields s) in
  Alcotest.(check bool) "of_fields rebuilds every counter" true
    (Stats.fields s = Stats.fields s');
  (* unknown names are ignored, known ones applied *)
  let s'' = Stats.of_fields [ ("no_such_counter", 1); ("steals", 4) ] in
  Alcotest.(check int) "known field set" 4 s''.Stats.steals

let test_stats_pp_verbose () =
  let s = Stats.create () in
  s.Stats.copies <- 2;
  let terse = Format.asprintf "@[<v>%a@]" (fun ppf -> Stats.pp ppf) s in
  let verbose =
    Format.asprintf "@[<v>%a@]" (fun ppf -> Stats.pp ~verbose:true ppf) s
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "terse prints non-zero" true (contains terse "copies");
  Alcotest.(check bool) "terse hides zero counters" false
    (contains terse "lao_hits");
  Alcotest.(check bool) "verbose shows zero counters" true
    (contains verbose "lao_hits");
  Alcotest.(check int) "verbose prints every field"
    (List.length (Stats.fields s))
    (List.length
       (List.filter (fun l -> String.trim l <> "")
          (String.split_on_char '\n' verbose)))

let test_config_validate () =
  let bad_agents = { Config.default with Config.agents = 0 } in
  Alcotest.(check bool) "agents >= 1 enforced" true
    (match Config.validate bad_agents with
     | exception Invalid_argument _ -> true
     | _ -> false);
  let no_solutions = { Config.default with Config.max_solutions = Some 0 } in
  Alcotest.(check bool) "max_solutions 0 accepted" true
    (Config.validate no_solutions == no_solutions);
  let bad_limit = { Config.default with Config.max_solutions = Some (-1) } in
  Alcotest.(check bool) "max_solutions >= 0 enforced" true
    (match Config.validate bad_limit with
     | exception Invalid_argument m -> m = "Config: max_solutions must be >= 0"
     | _ -> false);
  Alcotest.(check bool) "check names the field and its bound" true
    (Config.check { Config.default with Config.grain = 0 } = Error ("grain", 1));
  let bad_threshold = { Config.default with Config.seq_threshold = -1 } in
  Alcotest.(check bool) "seq_threshold >= 0 enforced" true
    (match Config.validate bad_threshold with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_config_presets () =
  let u = Config.unoptimized ~agents:7 () in
  Alcotest.(check bool) "unoptimized clears flags" true
    ((not u.Config.lpco) && (not u.Config.lao) && (not u.Config.spo)
     && (not u.Config.pdo) && u.Config.agents = 7);
  let o = Config.all_optimizations ~agents:3 () in
  Alcotest.(check bool) "all_optimizations sets the four paper flags" true
    (o.Config.lpco && o.Config.lao && o.Config.spo && o.Config.pdo);
  Alcotest.(check int) "granularity control stays off by default" 0
    o.Config.seq_threshold

let test_config_pp () =
  let s =
    Format.asprintf "%a" Config.pp
      { Config.default with Config.agents = 4; lpco = true; seq_threshold = 16 }
  in
  Alcotest.(check string) "pp format" "agents=4 opts={lpco,gc=16}" s

(* failure injection: engine errors inside simulated agents surface as
   exceptions rather than hanging the scheduler *)
let test_errors_propagate_from_agents () =
  let raises kind query =
    match
      Ace_core.Engine.solve_program kind
        { Config.default with Config.agents = 3 }
        ~program:"p(X, Y) :- q(X) & r(Y).\nq(1).\nr(Y) :- Y is foo + 1."
        ~query
    with
    | exception Ace_term.Arith.Error _ -> true
    | exception Ace_core.Errors.Engine_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "and-engine arithmetic error" true
    (raises Ace_core.Engine.And_parallel "p(X, Y)");
  Alcotest.(check bool) "or-engine undefined predicate" true
    (match
       Ace_core.Engine.solve_program Ace_core.Engine.Or_parallel
         { Config.default with Config.agents = 2 }
         ~program:"s(X) :- t(X)." ~query:"s(X)"
     with
     | exception Ace_core.Errors.Engine_error _ -> true
     | _ -> false)

let suite =
  [ Alcotest.test_case "cost model positive" `Quick test_cost_model_positive;
    Alcotest.test_case "cost calibration invariants" `Quick
      test_cost_model_calibration_invariants;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "stats fields" `Quick test_stats_fields_cover_record;
    Alcotest.test_case "stats fields reflect the record" `Quick
      test_stats_fields_reflect_record;
    Alcotest.test_case "stats json roundtrip" `Quick test_stats_json_roundtrip;
    Alcotest.test_case "stats pp verbose" `Quick test_stats_pp_verbose;
    Alcotest.test_case "config validation" `Quick test_config_validate;
    Alcotest.test_case "config presets" `Quick test_config_presets;
    Alcotest.test_case "config pp" `Quick test_config_pp;
    Alcotest.test_case "agent errors propagate" `Quick
      test_errors_propagate_from_agents ]
