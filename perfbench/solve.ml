(* The solve workloads: one in-process caller runs seeded passes of
   queries (paper programs, tabled programs, knowledge-base joins) to all
   solutions on one engine, and checks every answer. *)

module Engine = Ace_core.Engine
module Config = Ace_machine.Config
module Stats = Ace_machine.Stats
module Program = Ace_lang.Program
module Database = Ace_lang.Database

type engine = { kind : Engine.kind; config : Config.t }

(* `ace_run` defaults: compiled clause code, everything else off. *)
let seq = { kind = Engine.Sequential; config = { Config.default with compile = true } }

let par2 =
  { kind = Engine.Par_or; config = { Config.default with agents = 2; compile = true } }

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)
(* ------------------------------------------------------------------ *)

let expected_file = "bench/seq_core_expected.txt"

(* Paper-program expectations: the pinned compiled-seq digests. *)
let paper_expect () =
  let text = In_channel.with_open_text expected_file In_channel.input_all in
  let pinned =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ name; "seq/c"; n; digest ] -> Some (name, (int_of_string n, digest))
           | _ -> None)
  in
  fun name ->
    match List.assoc_opt name pinned with
    | Some (n, d) -> Gen.Digest (n, d)
    | None -> failwith (Printf.sprintf "%s: no pinned digest for %s" expected_file name)

let check (expect : Gen.expect) solutions =
  match expect with
  | Gen.Digest (n, d) ->
    List.length solutions = n && String.equal (Ace_check.Canon.digest solutions) d
  | Gen.Count n -> List.length solutions = n
  | Gen.Answers l -> Ace_check.Canon.multiset solutions = l

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type inputs = {
  kb : Gen.kb;
  seed : int;
  paper_expect : string -> Gen.expect;
  texts : string array;  (* program sources, indexed as [Gen.op.prog] *)
}

let inputs seed =
  let kb = Gen.kb seed in
  let texts =
    Array.of_list
      (List.map (fun (_, p, _) -> p) Gen.paper_programs
      @ List.map (fun (_, p, _, _) -> p) Gen.tabling_programs
      @ [ kb.Gen.text ])
  in
  { kb; seed; paper_expect = paper_expect (); texts }

type lang = {
  consult_s : float;
  prepare_s : float;
  clauses : int;
  full_speed_s : float;  (* consult + prepare, at full host speed *)
}

(* Consult + prepare every program, under spans, with a calibration loop
   before and after each program. *)
let prepare_all spans texts =
  let consult = ref 0 and prep = ref 0 and clauses = ref 0 and full = ref 0. in
  let cal = ref (Stat.calibrate_ns ()) in
  let progs =
    Array.map
      (fun text ->
        let t0 = Stat.now_ns () in
        let p =
          Span.with_span spans "Program.consult_string" ~op:(-1) (fun () ->
              Program.consult_string text)
        in
        let t1 = Stat.now_ns () in
        let db = Program.db p in
        let prepared =
          Span.with_span spans "Engine.prepare" ~op:(-1) (fun () -> Engine.prepare db)
        in
        let t2 = Stat.now_ns () in
        let c = Stat.calibrate_ns () in
        consult := !consult + (t1 - t0);
        prep := !prep + (t2 - t1);
        full :=
          !full
          +. Stat.at_full_speed
               { ms = Stat.ms_of_ns (t2 - t0); cal = Stat.ms_of_ns (max !cal c); e = 1.0 }
             /. 1e3;
        cal := c;
        clauses := !clauses + Database.total_clauses db;
        prepared)
      texts
  in
  ( progs,
    { consult_s = float_of_int !consult /. 1e9;
      prepare_s = float_of_int !prep /. 1e9;
      clauses = !clauses;
      full_speed_s = !full } )

(* ------------------------------------------------------------------ *)
(* The measured loop                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-op counters summed over traced passes. *)
type counts = {
  mutable ops : int;
  stats : Stats.t;
  mutable minor_words : float;
  mutable promoted_words : float;
}

(* How strongly each class slows down with the calibration loop, fitted
   on seven 40-45-s solve_seq runs on a 2-vCPU host, two of them slowed
   throughout or for most of their length: the paper and tabled
   programs, which run in cache as the loop does, slow down exactly as
   it does; the KB joins, which wait on memory, by its 0.7th power. *)
let exponent = function Gen.Paper | Gen.Table -> 1.0 | Gen.Kb -> 0.7

(* A pass's ops: each one's Engine.run time and the slower of the
   calibration loops run just before and just after it. *)
type pass = { wall_ms : float; traced : bool; ops : Stat.op array }

type loop = {
  cls_ms : (Gen.cls * Stat.samples) list;  (* traced passes: per class *)
  counts : counts;                          (* traced passes *)
  mutable passes : pass list;               (* newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable majors : int;
  mutable elapsed_s : float;
}

let new_loop () =
  { cls_ms = List.map (fun c -> (c, Stat.samples ())) [ Gen.Paper; Gen.Table; Gen.Kb ];
    counts =
      { ops = 0; stats = Stats.create (); minor_words = 0.; promoted_words = 0. };
    passes = []; attempted = 0; failed = 0; majors = 0; elapsed_s = 0. }

let report_failure (op : Gen.op) what =
  Printf.eprintf "perfbench: wrong answer (%s) for %s: %s\n%!"
    (Gen.cls_name op.Gen.cls) op.Gen.goal what

(* One op: parse, run, check.  Returns the Engine.run time in ns. *)
let run_op spans engine progs loop ~traced n (op : Gen.op) =
  Span.with_span spans "op" ~op:n @@ fun () ->
  let goal =
    Span.with_span spans "Program.parse_query" ~op:n (fun () ->
        (Program.parse_query op.Gen.goal).Program.goal)
  in
  let w0 = if traced then Gc.minor_words () else 0. in
  let g0 = if traced then Some (Gc.quick_stat ()) else None in
  let t0 = Stat.now_ns () in
  let r =
    Span.with_span spans "Engine.run" ~op:n (fun () ->
        Engine.run engine.kind engine.config progs.(op.Gen.prog) goal)
  in
  let dt = Stat.now_ns () - t0 in
  (match g0 with
   | Some g0 ->
     let g1 = Gc.quick_stat () in
     let c = loop.counts in
     c.minor_words <- c.minor_words +. (Gc.minor_words () -. w0);
     c.promoted_words <- c.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
     c.ops <- c.ops + 1;
     Stats.merge_into ~into:c.stats r.Engine.stats;
     Stat.add (List.assoc op.Gen.cls loop.cls_ms) (Stat.ms_of_ns dt)
   | None -> ());
  let ok =
    r.Engine.cancelled = None
    && Span.with_span spans "Pp" ~op:n (fun () -> check op.Gen.expect r.Engine.solutions)
  in
  loop.attempted <- loop.attempted + 1;
  if not ok then begin
    loop.failed <- loop.failed + 1;
    report_failure op (Printf.sprintf "%d solutions" (List.length r.Engine.solutions))
  end;
  dt

(* Runs passes [first], [first+1], ... until [seconds] have passed (and
   at least [min_passes], default 2).  [alternate]: trace every other
   pass (the traced run), so traced and untraced passes see the same
   host conditions. *)
let run_passes ?(alternate = false) ?(first = 0) ?(min_passes = 2) spans engine
    inputs progs ~seconds =
  let loop = new_loop () in
  let g0 = Gc.quick_stat () in
  let start = Stat.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let n = ref first in
  while !n - first < min_passes || Stat.now_ns () < deadline do
    let traced = alternate && !n mod 2 = 0 in
    spans.Span.on <- traced;
    let ops = Gen.pass inputs.kb ~paper_expect:inputs.paper_expect inputs.seed !n in
    Cpu.to_fastest ();
    let cal = ref (Stat.calibrate_ns ()) in
    let p0 = Stat.now_ns () in
    let samples =
      Array.mapi
        (fun i (op : Gen.op) ->
          let dt = run_op spans engine progs loop ~traced ((!n * 1000) + i) op in
          let c = Stat.calibrate_ns () in
          let s =
            { Stat.ms = Stat.ms_of_ns dt; cal = Stat.ms_of_ns (max !cal c);
              e = exponent op.Gen.cls }
          in
          cal := c;
          s)
        ops
    in
    let wall_ms = Stat.ms_of_ns (Stat.now_ns () - p0) in
    loop.passes <- { wall_ms; traced; ops = samples } :: loop.passes;
    incr n
  done;
  Cpu.release ();
  spans.Span.on <- false;
  loop.elapsed_s <- float_of_int (Stat.now_ns () - start) /. 1e9;
  loop.majors <- (Gc.quick_stat ()).Gc.major_collections - g0.Gc.major_collections;
  loop

(* ------------------------------------------------------------------ *)
(* Workload entry points                                               *)
(* ------------------------------------------------------------------ *)

let setup_reps = 5

exception Wrong_answer of string

(* Every op's Engine.run time over the run, at full host speed (ms).
   On the same seven runs the Engine.run times as measured spread by
   36-40% (max-min over median) on ops/s, p50, p99 and geomean; at full
   speed, by 2-4%. *)
let latencies loop =
  Array.concat (List.map (fun p -> Array.map Stat.at_full_speed p.ops) loop.passes)

(* [setup_reps] set-ups by [once ~rep], each returning its result and
   its time at full host speed (s), with one set-up live at a time, as
   for a real caller; then the median time and the last result. *)
let repeat_setup once =
  let reps = Array.make setup_reps 0. in
  let kept = ref None in
  for rep = 0 to setup_reps - 1 do
    kept := None;
    Gc.full_major ();
    Cpu.to_fastest ();
    let r, s = once ~rep in
    reps.(rep) <- s;
    kept := Some r
  done;
  (Stat.median reps, Option.get !kept)

(* The solve set-up: consult + prepare of every program, then one
   warm-up pass; its time counts the warm-up pass's Engine.run time. *)
let setup spans engine inputs =
  let setup_s, (progs, lang) =
    repeat_setup (fun ~rep ->
        let progs, lang = prepare_all spans inputs.texts in
        let warm =
          run_passes (Span.create ()) engine inputs progs ~seconds:0. ~min_passes:1
            ~first:(-1 - rep)
        in
        if warm.failed > 0 then raise (Wrong_answer "during the warm-up pass");
        ((progs, lang), lang.full_speed_s +. (Stat.sum (latencies warm) /. 1e3)))
  in
  (setup_s, progs, lang)

(* Per-layer metrics of a traced loop. *)
let layer_metrics loop =
  let c = loop.counts in
  let per_op x = float_of_int x /. float_of_int (max 1 c.ops) in
  let st = c.stats in
  let cls_ms cls = Stat.median (Stat.to_array (List.assoc cls loop.cls_ms)) in
  let wall traced =
    List.filter_map (fun p -> if p.traced = traced then Some p.wall_ms else None) loop.passes
    |> Array.of_list |> Stat.median
  in
  [ ("core.run_ms.paper", cls_ms Gen.Paper, "ms");
    ("core.run_ms.table", cls_ms Gen.Table, "ms");
    ("core.run_ms.kb", cls_ms Gen.Kb, "ms");
    ("core.unify_steps_per_op", per_op st.Stats.unify_steps, "count");
    ("core.code_instrs_per_op", per_op st.Stats.code_instrs, "count");
    ("core.clause_tries_per_op", per_op st.Stats.clause_tries, "count");
    ("core.cp_allocs_per_op", per_op st.Stats.cp_allocs, "count");
    ("core.trail_pushes_per_op", per_op st.Stats.trail_pushes, "count");
    ("core.env_allocs_per_op", per_op st.Stats.env_allocs, "count");
    ("core.builtin_calls_per_op", per_op st.Stats.builtin_calls, "count");
    ("core.backtracks_per_try",
     float_of_int st.Stats.backtracks /. float_of_int (max 1 st.Stats.clause_tries), "1");
    ("gc.minor_words_per_op", c.minor_words /. float_of_int (max 1 c.ops), "words");
    ("gc.promoted_words_per_op", c.promoted_words /. float_of_int (max 1 c.ops), "words");
    ("gc.major_collections_per_s", float_of_int loop.majors /. loop.elapsed_s, "1/s");
    ("table.subgoals_per_op", per_op st.Stats.table_subgoals, "count");
    ("table.answers_per_op", per_op st.Stats.table_answers, "count");
    ("table.suspends_per_op", per_op st.Stats.table_suspends, "count");
    ("table.resumes_per_op", per_op st.Stats.table_resumes, "count");
    ("table.variant_hits_per_op", per_op st.Stats.table_variant_hits, "count");
    (* median wall time of traced passes over untraced ones *)
    ("trace.overhead_frac", (wall true /. wall false) -. 1., "1") ]
