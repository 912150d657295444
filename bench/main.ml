(* Wall-clock benchmarks (bechamel): one Test.make per table and figure of
   the paper, plus ablation benches for the design choices called out in
   DESIGN.md.

   Each benchmark body runs one representative measurement cell of the
   corresponding experiment — the workload of the table's first row at the
   table's largest processor count, optimization on — so the numbers here
   track the cost of *regenerating* the paper's results.  (The simulated
   cycle counts that the tables themselves report are deterministic and do
   not depend on this host; run `ace_experiments` for those.)

     dune exec bench/main.exe             # bechamel suite + par-or sweep
     dune exec bench/main.exe -- par_or   # only the domain sweep (CI smoke)
     dune exec bench/main.exe -- par_and  # and-parallel frame sweep (CI smoke)
     dune exec bench/main.exe -- seq_core # engine hot-path wall clock + digests
     dune exec bench/main.exe -- alloc    # minor-words/solution gate (CI smoke)
     dune exec bench/main.exe -- tabling  # SLG answer-table suite (CI smoke)

   The first two forms write BENCH_par_or.json (wall-clock runs of the
   hardware or-parallel engine at 1, 2 and 4 domains) to the current
   directory; `par_and` writes BENCH_par_and.json (parcall frames at the
   same domain counts).
*)

open Bechamel
open Toolkit

module Config = Ace_machine.Config
module Cost = Ace_machine.Cost
module Engine = Ace_core.Engine
module Programs = Ace_benchmarks.Programs
module Experiment = Ace_harness.Experiment

(* Bench sizes are scaled down from the experiment defaults so a single
   iteration stays in the tens of milliseconds. *)
let bench_size name =
  let b = Programs.find name in
  max b.Programs.small_size (b.Programs.default_size / 4)

let run_benchmark ?(config = Config.default) name size =
  let b = Programs.find name in
  let program = b.Programs.program size and query = b.Programs.query size in
  Engine.solve_program b.Programs.kind config ~program ~query

(* One cell of a paper experiment: first workload, largest P, opt on. *)
let experiment_cell (e : Experiment.t) =
  let w = List.hd e.Experiment.workloads in
  let agents = List.fold_left max 1 e.Experiment.processors in
  let config =
    Experiment.apply_optimization { Config.default with agents }
      e.Experiment.optimization
  in
  let b = Programs.find w.Experiment.w_benchmark in
  let size = max b.Programs.small_size (w.Experiment.w_size / 4) in
  fun () -> ignore (run_benchmark ~config w.Experiment.w_benchmark size)

let paper_tests =
  List.map
    (fun (e : Experiment.t) ->
      Test.make ~name:e.Experiment.id (Staged.stage (experiment_cell e)))
    Experiment.all

(* X1/X2: the unnumbered claims. *)
let extra_tests =
  [ Test.make ~name:"overhead"
      (Staged.stage (fun () ->
           ignore
             (Ace_harness.Extras.run_overhead ~benchmarks:[ "map2"; "occur" ]
                ~size_of:(fun b -> max b.Programs.small_size (b.Programs.default_size / 8))
                ())));
    Test.make ~name:"memory"
      (Staged.stage (fun () ->
           ignore (Ace_harness.Extras.run_memory ~benchmarks:[ "occur" ] ~agents:3 ()))) ]

(* Ablations (DESIGN.md §5):
   - lao-copy-cost: LAO's profit depends on the stack-copy cost; double it
     and the LAO benefit at 8 workers should grow.
   - lpco-vs-unopt: the flattened and nested runs side by side.
   - engine substrate microbenches: parser and sequential resolution. *)
let ablation_tests =
  let queen_size = 5 in
  let copy2 = { Cost.default with Cost.copy_cell = 2 * Cost.default.Cost.copy_cell } in
  [ Test.make ~name:"ablate:lao-copy-cost"
      (Staged.stage (fun () ->
           ignore
             (run_benchmark
                ~config:{ Config.default with agents = 8; lao = true; cost = copy2 }
                "queen2" queen_size)));
    Test.make ~name:"ablate:lpco-on"
      (Staged.stage (fun () ->
           ignore
             (run_benchmark
                ~config:{ Config.default with agents = 4; lpco = true }
                "map2" (bench_size "map2"))));
    Test.make ~name:"ablate:lpco-off"
      (Staged.stage (fun () ->
           ignore
             (run_benchmark ~config:{ Config.default with agents = 4 } "map2"
                (bench_size "map2"))));
    Test.make ~name:"ablate:granularity-ctl"
      (Staged.stage (fun () ->
           ignore
             (run_benchmark
                ~config:{ Config.default with agents = 4; seq_threshold = 24 }
                "takeuchi" 10)));
    (let source = (Programs.find "annotator").Programs.program 0 in
     Test.make ~name:"substrate:parse"
       (Staged.stage (fun () ->
            ignore (Ace_lang.Program.consult_string source))));
    (let b = Programs.find "quick_sort" in
     let program = b.Programs.program 0 and query = b.Programs.query 40 in
     Test.make ~name:"substrate:seq-resolution"
       (Staged.stage (fun () ->
            ignore (Engine.solve_program Engine.Sequential Config.default ~program ~query)))) ]

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"ace" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  results

(* The hardware or-parallel sweep is measured directly (min of repeats)
   rather than through bechamel: each row is a multi-domain run whose
   set-up/tear-down (Domain.spawn/join) is part of the measured cost. *)
let par_or_sweep () =
  Ace_harness.Extras.warn_domains ~requested:4;
  let rows = Ace_harness.Extras.run_par_or () in
  Format.printf "@[<v>%a@]@." Ace_harness.Extras.pp_par_or rows;
  let json = Ace_harness.Extras.par_or_json rows in
  Out_channel.with_open_text "BENCH_par_or.json" (fun oc ->
      Out_channel.output_string oc json);
  Format.printf "wrote BENCH_par_or.json (%d rows)@." (List.length rows);
  if not (List.for_all (fun r -> r.Ace_harness.Extras.p_matches_seq) rows)
  then begin
    Format.eprintf "par-or solution set diverged from the sequential engine@.";
    exit 1
  end

(* The hardware and-parallel sweep: parcall frames at 1, 2 and 4 domains,
   SPO off so every independent '&' builds a frame.  Fails if any run's
   solution multiset diverges from the sequential engine, or if no frame
   was ever built (the machinery silently not running is itself a bug). *)
let par_and_sweep () =
  Ace_harness.Extras.warn_domains ~requested:4;
  let rows = Ace_harness.Extras.run_par_and () in
  Format.printf "@[<v>%a@]@." Ace_harness.Extras.pp_par_and rows;
  let json = Ace_harness.Extras.par_and_json rows in
  Out_channel.with_open_text "BENCH_par_and.json" (fun oc ->
      Out_channel.output_string oc json);
  Format.printf "wrote BENCH_par_and.json (%d rows)@." (List.length rows);
  if not (List.for_all (fun r -> r.Ace_harness.Extras.a_matches_seq) rows)
  then begin
    Format.eprintf "par-and solution multiset diverged from the sequential engine@.";
    exit 1
  end;
  if List.for_all (fun r -> r.Ace_harness.Extras.a_frames = 0) rows then begin
    Format.eprintf "par-and sweep never built a parcall frame@.";
    exit 1
  end

(* The sequential-core smoke: wall clock of the hot path per engine, plus a
   canonical-solution-set digest compared against the seed recording in
   bench/seq_core_expected.txt (guards core refactors against semantic
   drift).  `record` regenerates the expected file. *)
let seq_core_run ~record () =
  let rows =
    (* pderiv's experiment-default size solves in ~0.25 ms — below
       reliable wall-clock resolution — so the bench quadruples it *)
    Ace_harness.Extras.run_seq_core
      ~size_of:(fun b ->
        if b.Programs.name = "pderiv" then 4 * b.Programs.default_size
        else b.Programs.default_size)
      ()
  in
  Format.printf "@[<v>%a@]@." Ace_harness.Extras.pp_seq_core rows;
  let json = Ace_harness.Extras.seq_core_json rows in
  Out_channel.with_open_text "BENCH_seq_core.json" (fun oc ->
      Out_channel.output_string oc json);
  Format.printf "wrote BENCH_seq_core.json (%d rows)@." (List.length rows);
  let expected_file = "bench/seq_core_expected.txt" in
  if record then begin
    Out_channel.with_open_text expected_file (fun oc ->
        Out_channel.output_string oc
          (Ace_harness.Extras.expected_of_rows rows));
    Format.printf "recorded %s@." expected_file
  end
  else
    match In_channel.with_open_text expected_file In_channel.input_all with
    | exception Sys_error _ ->
      Format.eprintf "missing %s (run `seq_core record` once)@." expected_file;
      exit 1
    | expected ->
      (match Ace_harness.Extras.check_seq_core ~expected rows with
       | [] -> Format.printf "solution sets match the seed recording@."
       | diffs ->
         List.iter (fun d -> Format.eprintf "seq-core drift: %s@." d) diffs;
         exit 1)

(* The allocation-regression gate: minor GC words per solution of the
   sequential engine (interpreted and compiled) on the seq-core suite,
   compared against pinned baselines in bench/seq_core_alloc_expected.txt
   with 10% relative tolerance.  Allocation counts are deterministic for
   the single-domain engine, so one repeat suffices.  `record` pins the
   current numbers. *)
let alloc_run ~record () =
  let rows =
    Ace_harness.Extras.run_seq_core ~engines:[ Engine.Sequential ] ~repeat:1
      ~size_of:(fun b ->
        if b.Programs.name = "pderiv" then 4 * b.Programs.default_size
        else b.Programs.default_size)
      ()
  in
  Format.printf "@[<v>%a@]@." Ace_harness.Extras.pp_seq_core rows;
  let json = Ace_harness.Extras.seq_core_json rows in
  Out_channel.with_open_text "BENCH_alloc.json" (fun oc ->
      Out_channel.output_string oc json);
  Format.printf "wrote BENCH_alloc.json (%d rows)@." (List.length rows);
  let expected_file = "bench/seq_core_alloc_expected.txt" in
  if record then begin
    Out_channel.with_open_text expected_file (fun oc ->
        Out_channel.output_string oc
          (Ace_harness.Extras.alloc_expected_of_rows rows));
    Format.printf "recorded %s@." expected_file
  end
  else
    match In_channel.with_open_text expected_file In_channel.input_all with
    | exception Sys_error _ ->
      Format.eprintf "missing %s (run `alloc record` once)@." expected_file;
      exit 1
    | expected ->
      (match Ace_harness.Extras.check_alloc ~expected rows with
       | [] -> Format.printf "allocation per solution within 10%% of the pinned baselines@."
       | regressions ->
         List.iter
           (fun d -> Format.eprintf "alloc regression: %s@." d)
           regressions;
         exit 1)

(* `profile`: run the seq-core suite on the compiled sequential engine
   under the per-predicate profiler, assert the known top-1 hotspot per
   benchmark, and measure profiler overhead two ways: enabled vs
   disabled in this process, and disabled vs the pinned wall times in
   BENCH_seq_core.json.  The hooks compile to a load and a branch when
   profiling is off, so the disabled delta must stay within wall-clock
   noise (< 2%% target on the geomean). *)
module Prof = Ace_obs.Prof
module Json = Ace_obs.Json

(* Known hotspots, pinned: the top-ranked user predicate by exclusive
   cost.  A benchmark absent from this table is printed but not
   asserted. *)
let profile_expected =
  [ ("queen1", [ "noatt/3" ]);
    ("queen2", [ "noatt/3" ]);
    ("puzzle", [ "sel/3" ]);
    ("members", [ "member/2" ]);
    ("maps", [ "color/1"; "next/2" ]);
    ("pderiv", [ "d/2" ]);
    ("matrix", [ "dot/3"; "mult/3" ]);
    ("hanoi", [ "app/3"; "hanoi/5" ]);
    ("takeuchi", [ "tak/4" ]);
    ("bt_cluster", [ "cluster/3" ]);
    ("quick_sort", [ "qsort/2"; "part/4" ]) ]

let profile_size b =
  if b.Programs.name = "pderiv" then 4 * b.Programs.default_size
  else b.Programs.default_size

let profile_config = { Config.default with Config.agents = 1; compile = true }

let profile_run () =
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun name ->
      let b = Programs.find name in
      let size = profile_size b in
      let program = b.Programs.program size and query = b.Programs.query size in
      let prof = Prof.create () in
      ignore
        (Engine.solve_program
           ~opts:{ Engine.default_opts with Engine.prof }
           Engine.Sequential profile_config ~program ~query);
      match Prof.top_hotspot prof with
      | None -> fail "%s: empty profile" name
      | Some row ->
        Format.printf "%-12s hotspot %-16s %9d calls %12d cycles@." name
          row.Prof.r_name row.Prof.r_calls row.Prof.r_cycles;
        (match List.assoc_opt name profile_expected with
         | Some allowed when not (List.mem row.Prof.r_name allowed) ->
           fail "%s: hotspot %s, expected one of [%s]" name row.Prof.r_name
             (String.concat "; " allowed)
         | _ -> ()))
    Ace_harness.Extras.seq_core_benchmarks;
  (* Enabled-vs-disabled overhead, best-of-5 in this process. *)
  let measure ~profiled name =
    let b = Programs.find name in
    let size = profile_size b in
    let program = b.Programs.program size and query = b.Programs.query size in
    let p = Ace_lang.Program.consult_string program in
    let q = Ace_lang.Program.parse_query query in
    let db = Ace_lang.Program.db p in
    Ace_lang.Database.freeze db;
    let best = ref infinity in
    for _ = 1 to 5 do
      Gc.full_major ();
      let prof = if profiled then Prof.create () else Prof.disabled in
      let t0 = Unix.gettimeofday () in
      ignore
        (Engine.solve
           ~opts:{ Engine.default_opts with Engine.prof }
           Engine.Sequential profile_config db q.Ace_lang.Program.goal);
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      if ms < !best then best := ms
    done;
    !best
  in
  let overhead_benchmarks = [ "queen1"; "takeuchi"; "quick_sort" ] in
  let log_sum = ref 0. in
  List.iter
    (fun name ->
      let off = measure ~profiled:false name in
      let on = measure ~profiled:true name in
      log_sum := !log_sum +. log (on /. off);
      Format.printf "%-12s disabled %8.3f ms   enabled %8.3f ms   x%.3f@."
        name off on (on /. off))
    overhead_benchmarks;
  Format.printf "profiler-enabled overhead geomean: x%.3f@."
    (exp (!log_sum /. float_of_int (List.length overhead_benchmarks)));
  (* Disabled wall clock vs the pinned baseline recording. *)
  (match In_channel.with_open_text "BENCH_seq_core.json" In_channel.input_all with
   | exception Sys_error _ ->
     Format.printf "no BENCH_seq_core.json; skipping the baseline comparison@."
   | text -> (
     let baseline =
       match Json.parse text with
       | Error _ -> []
       | Ok doc ->
         let rows =
           Option.bind (Json.member "rows" doc) Json.to_list
           |> Option.value ~default:[]
         in
         List.filter_map
           (fun row ->
             match
               ( Json.member "benchmark" row,
                 Json.member "engine" row,
                 Json.member "wall_ms" row )
             with
             | Some (Json.Str b), Some (Json.Str "seq/c"), Some (Json.Num w) ->
               Some (b, w)
             | _ -> None)
           rows
     in
     match baseline with
     | [] -> Format.printf "BENCH_seq_core.json has no seq/c rows; skipping@."
     | baseline ->
       let log_sum = ref 0. and n = ref 0 in
       List.iter
         (fun (name, base_ms) ->
           let now_ms = measure ~profiled:false name in
           log_sum := !log_sum +. log (now_ms /. base_ms);
           incr n)
         baseline;
       let geo = exp (!log_sum /. float_of_int !n) in
       Format.printf
         "disabled-profiler geomean vs BENCH_seq_core.json (seq/c): x%.3f \
          (target < 1.02)@."
         geo;
       if geo > 1.15 then
         fail "disabled-profiler wall clock regressed x%.3f vs baseline" geo));
  match !failures with
  | [] -> Format.printf "profile: all hotspot assertions passed@."
  | fs ->
    List.iter (fun f -> Format.eprintf "profile: %s@." f) (List.rev fs);
    exit 1

(* `tabling`: wall-clock suite for the SLG answer table — left-recursive
   reachability over a cyclic graph, same-generation over a complete
   binary tree, and doubly-recursive transitive closure — on all four
   engines.  Tabled results are answer *sets*, so each run's solution
   count is asserted exactly; a lost or duplicated answer fails the
   bench.  Two clock-free work gates hold the answer-delta evaluation in
   place: the sequential engine never re-passes a region (its
   [table_resumes] is 0: no consumer here sits under a control
   construct), and left-recursive reachability tries at most
   2 × (answers + edges) clauses there.  Writes BENCH_tabling.json (wall
   clock, answer counts and table counters per row) with the standard
   host object. *)

let tabling_workloads =
  let path_cycle n =
    let b = Buffer.create 4096 in
    Buffer.add_string b ":- table(path/2).\n";
    for i = 0 to n - 1 do
      Printf.bprintf b "edge(n%d, n%d).\n" i ((i + 1) mod n)
    done;
    for i = 0 to (n / 10) - 1 do
      Printf.bprintf b "edge(n%d, n%d).\n" (i * 10) ((i * 10 + 13) mod n)
    done;
    Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
    Buffer.add_string b "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
    Buffer.contents b
  in
  let tc_double n =
    let b = Buffer.create 4096 in
    Buffer.add_string b ":- table(path/2).\n";
    for i = 0 to n - 1 do
      Printf.bprintf b "edge(n%d, n%d).\n" i ((i + 1) mod n)
    done;
    Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
    Buffer.add_string b "path(X, Y) :- path(X, Z), path(Z, Y).\n";
    Buffer.contents b
  in
  let same_gen depth =
    (* complete binary tree, heap numbering: node 1 is the root and the
       leaves are 2^depth .. 2^(depth+1)-1 *)
    let b = Buffer.create 4096 in
    Buffer.add_string b ":- table(sg/2).\n";
    let last = (1 lsl (depth + 1)) - 1 in
    for i = 1 to last do
      Printf.bprintf b "node(n%d).\n" i;
      if 2 * i <= last then Printf.bprintf b "edge(n%d, n%d).\n" i (2 * i);
      if (2 * i) + 1 <= last then
        Printf.bprintf b "edge(n%d, n%d).\n" i ((2 * i) + 1)
    done;
    Buffer.add_string b "sg(X, X) :- node(X).\n";
    Buffer.add_string b "sg(X, Y) :- edge(P, X), sg(P, Q), edge(Q, Y).\n";
    Buffer.contents b
  in
  (* a ring of n edges plus n/10 chords *)
  let path_cycle_edges n = n + (n / 10) in
  (* name, program, query, answers, seq clause-try bound *)
  [ ("path_cycle", path_cycle 120, "path(n0, X)", 120,
     Some (2 * (120 + path_cycle_edges 120)));
    ("tc_double", tc_double 60, "path(n0, X)", 60, None);
    (* every leaf is the same generation as the leftmost leaf *)
    ("same_gen", same_gen 6, "sg(n64, X)", 64, None) ]

let tabling_run () =
  let engines =
    [ (Engine.Sequential, 1); (Engine.And_parallel, 4);
      (Engine.Or_parallel, 4); (Engine.Par_or, 2); (Engine.Par_or, 4) ]
  in
  let rows = ref [] in
  let failed = ref false in
  List.iter
    (fun (bench, program, query, expected, tries_bound) ->
      List.iter
        (fun (kind, agents) ->
          let config =
            { (Config.all_optimizations ~agents ()) with Config.compile = true }
          in
          let best = ref infinity and answers = ref 0 in
          let stats = ref None in
          for _ = 1 to 3 do
            let t0 = Unix.gettimeofday () in
            let r = Engine.solve_program kind config ~program ~query in
            let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
            if ms < !best then best := ms;
            answers := List.length r.Engine.solutions;
            stats := Some r.Engine.stats;
            if !answers <> expected then begin
              Format.eprintf
                "tabling: %s on %s@%d produced %d answers, expected %d@."
                bench (Engine.kind_to_string kind) agents !answers expected;
              failed := true
            end
          done;
          let st = Option.get !stats in
          if kind = Engine.Sequential then begin
            let resumes = st.Ace_machine.Stats.table_resumes
            and tries = st.Ace_machine.Stats.clause_tries in
            if resumes <> 0 then begin
              Format.eprintf "tabling: %s on seq re-passed %d times, expected 0@."
                bench resumes;
              failed := true
            end;
            match tries_bound with
            | Some bound when tries > bound ->
              Format.eprintf "tabling: %s on seq tried %d clauses, bound %d@."
                bench tries bound;
              failed := true
            | Some _ | None -> ()
          end;
          Format.printf
            "%-12s %s@%d %5d answers %10.2f ms   subgoals %d  answers %d  hits %d@."
            bench (Engine.kind_to_string kind) agents !answers !best
            st.Ace_machine.Stats.table_subgoals
            st.Ace_machine.Stats.table_answers
            st.Ace_machine.Stats.table_answer_hits;
          rows :=
            Json.Obj
              [ ("benchmark", Json.Str bench);
                ("engine", Json.Str (Engine.kind_to_string kind));
                ("agents", Json.int agents);
                ("wall_ms", Json.Num !best);
                ("answers", Json.int !answers);
                ("table_subgoals", Json.int st.Ace_machine.Stats.table_subgoals);
                ("table_answers", Json.int st.Ace_machine.Stats.table_answers);
                ("answer_hits", Json.int st.Ace_machine.Stats.table_answer_hits);
                ("variant_hits", Json.int st.Ace_machine.Stats.table_variant_hits);
                ("suspends", Json.int st.Ace_machine.Stats.table_suspends);
                ("resumes", Json.int st.Ace_machine.Stats.table_resumes) ]
            :: !rows)
        engines)
    tabling_workloads;
  let json =
    Json.to_string
      (Json.Obj
         [ ("host", Ace_harness.Extras.host_json ());
           ("rows", Json.List (List.rev !rows)) ])
  in
  Out_channel.with_open_text "BENCH_tabling.json" (fun oc ->
      Out_channel.output_string oc json);
  Format.printf "wrote BENCH_tabling.json (%d rows)@." (List.length !rows);
  if !failed then begin
    Format.eprintf "tabling: a tabled answer count or work gate failed@.";
    exit 1
  end

(* `serve [clients=N] [queries=Q]`: wall-clock suite for the query
   server (lib/serve) — an in-process Server on a Unix socket, each
   client thread holding one connection (one session) and running Q
   line-delimited JSON queries back to back.  Rows report queries/sec
   and p50/p99 latency at clients x domains; a final deadline row sends
   a non-terminating query with a wall-clock deadline and asserts the
   cancellation lands within a bounded interval.  Writes
   BENCH_serve.json with the standard host object. *)

let serve_program =
  let b = Buffer.create 4096 in
  let n = 40 in
  for i = 0 to n - 2 do
    Printf.bprintf b "edge(n%d, n%d).\n" i (i + 1);
    if i mod 8 = 0 && i + 9 < n then
      Printf.bprintf b "edge(n%d, n%d).\n" i (i + 9)
  done;
  Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
  Buffer.add_string b "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  (* unbounded backtracking, zero solutions: the deadline row's query *)
  Buffer.add_string b "gen(z).\ngen(s(N)) :- gen(N).\n";
  Buffer.add_string b "spin :- gen(N), never(N).\nnever(none).\n";
  Buffer.contents b

let serve_goal = "path(n0, X)"

(* One request/response round trip on an open connection. *)
let serve_roundtrip ic oc req =
  output_string oc (Json.to_string req);
  output_char oc '\n';
  flush oc;
  match Json.parse (input_line ic) with
  | Ok j -> j
  | Error m -> failwith ("serve bench: bad response json: " ^ m)

let serve_connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let serve_client addr ~queries ~expected ~failed () =
  let fd, ic, oc = serve_connect addr in
  let lat = ref [] in
  for i = 1 to queries do
    let t0 = Unix.gettimeofday () in
    let j =
      serve_roundtrip ic oc
        (Json.Obj
           [ ("op", Json.Str "query"); ("id", Json.int i);
             ("goal", Json.Str serve_goal) ])
    in
    lat := ((Unix.gettimeofday () -. t0) *. 1e3) :: !lat;
    (match Json.member "count" j with
    | Some (Json.Num c) when int_of_float c = expected -> ()
    | _ ->
      Format.eprintf "serve: bad answer %s@." (Json.to_string j);
      Atomic.set failed true)
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  !lat

let serve_percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (p *. float_of_int (n - 1)))))

let serve_run ~clients ~queries =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ace_bench_serve_%d.sock" (Unix.getpid ()))
  in
  let addr = Unix.ADDR_UNIX sock in
  let prepared = Engine.prepare_string serve_program in
  let expected =
    let r =
      Engine.solve Engine.Sequential Config.default (Engine.database prepared)
        (Ace_lang.Program.parse_query serve_goal).Ace_lang.Program.goal
    in
    List.length r.Engine.solutions
  in
  Format.printf "serve: %d solutions per query, socket %s@." expected sock;
  let failed = Atomic.make false in
  let rows = ref [] in
  let combos =
    (* the CI host may be single-core: modest domain counts only *)
    [ (1, Engine.Sequential, 1); (2, Engine.Sequential, 1);
      (clients, Engine.Sequential, 1); (2, Engine.Par_or, 2) ]
  in
  List.iter
    (fun (nclients, kind, agents) ->
      let config =
        { (Config.all_optimizations ~agents ()) with Config.compile = true }
      in
      let srv =
        Ace_server.Server.create ~workers:4 ~engine:kind ~config ~listen:addr
          prepared
      in
      let results = Array.make nclients [] in
      let t0 = Unix.gettimeofday () in
      let threads =
        List.init nclients (fun i ->
            Thread.create
              (fun () ->
                try results.(i) <- serve_client addr ~queries ~expected ~failed ()
                with e ->
                  Format.eprintf "serve: client died: %s@."
                    (Printexc.to_string e);
                  Atomic.set failed true)
              ())
      in
      List.iter Thread.join threads;
      let wall_s = Unix.gettimeofday () -. t0 in
      Ace_server.Server.drain srv;
      Ace_server.Server.wait srv;
      let lats = Array.of_list (List.concat (Array.to_list results)) in
      Array.sort compare lats;
      if Array.length lats = 0 then Atomic.set failed true
      else begin
        let total = nclients * queries in
        let qps = float_of_int total /. wall_s in
        let p50 = serve_percentile lats 0.50
        and p99 = serve_percentile lats 0.99 in
        Format.printf
          "serve %d client(s) %s@%d  %4d queries %8.1f q/s  p50 %6.2f ms  \
           p99 %6.2f ms@."
          nclients (Engine.kind_to_string kind) agents total qps p50 p99;
        rows :=
          Json.Obj
            [ ("clients", Json.int nclients);
              ("engine", Json.Str (Engine.kind_to_string kind));
              ("domains", Json.int agents);
              ("workers", Json.int 4);
              ("queries", Json.int total);
              ("qps", Json.Num qps);
              ("p50_ms", Json.Num p50);
              ("p99_ms", Json.Num p99) ]
          :: !rows
      end)
    combos;
  (* deadline row: a query that never terminates on its own must come
     back cancelled within a bounded interval of its deadline *)
  let deadline_ms = 80 in
  let overshoot_bound_ms = 2000.0 in
  let srv =
    Ace_server.Server.create ~workers:2 ~engine:Engine.Sequential
      ~config:{ Config.default with Config.compile = true }
      ~listen:addr prepared
  in
  let fd, ic, oc = serve_connect addr in
  let t0 = Unix.gettimeofday () in
  let j =
    serve_roundtrip ic oc
      (Json.Obj
         [ ("op", Json.Str "query"); ("id", Json.int 1);
           ("goal", Json.Str "spin"); ("deadline_ms", Json.int deadline_ms) ])
  in
  let observed_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Ace_server.Server.drain srv;
  Ace_server.Server.wait srv;
  let cancelled =
    match Json.member "cancelled" j with Some (Json.Str s) -> s | _ -> ""
  in
  let overshoot_ms = observed_ms -. float_of_int deadline_ms in
  Format.printf
    "serve deadline: %d ms deadline, answered in %.1f ms (overshoot %.1f ms, \
     cancelled=%S)@."
    deadline_ms observed_ms overshoot_ms cancelled;
  if cancelled <> "deadline" || overshoot_ms > overshoot_bound_ms then begin
    Format.eprintf "serve: deadline cancellation out of bounds@.";
    Atomic.set failed true
  end;
  let json =
    Json.to_string
      (Json.Obj
         [ ("host", Ace_harness.Extras.host_json ());
           ("rows", Json.List (List.rev !rows));
           ("deadline",
            Json.Obj
              [ ("deadline_ms", Json.int deadline_ms);
                ("observed_ms", Json.Num observed_ms);
                ("overshoot_ms", Json.Num overshoot_ms);
                ("overshoot_bound_ms", Json.Num overshoot_bound_ms);
                ("cancelled", Json.Str cancelled) ]) ])
  in
  Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
      Out_channel.output_string oc json);
  Format.printf "wrote BENCH_serve.json (%d rows)@." (List.length !rows);
  if Atomic.get failed then begin
    Format.eprintf "serve: bench failed@.";
    exit 1
  end

(* `fuzz [count=N] [seed=N] [schedules=N]`: differential-fuzz throughput —
   run the lib/check oracle over N generated cases and report cases/sec;
   exits 1 on any cross-engine discrepancy, so it doubles as a deep
   correctness sweep. *)
let fuzz_run ~count ~seed ~schedules ~profile_all =
  Format.printf "fuzz: %d cases from seed %d, %d chaos schedules%s@." count
    seed schedules
    (if profile_all then ", profiler on every row" else "");
  let t0 = Unix.gettimeofday () in
  let report =
    Ace_check.Fuzz.run ~count ~seed ~schedules ~profile_all
      ~log:(Format.eprintf "fuzz: %s@.")
      ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "%a" Ace_check.Fuzz.pp_report report;
  Format.printf "fuzz: %.1f cases/sec, %.1f engine runs/sec (%.2fs total)@."
    (float_of_int report.Ace_check.Fuzz.r_count /. dt)
    (float_of_int report.Ace_check.Fuzz.r_runs /. dt)
    dt;
  if Ace_check.Fuzz.ok report then exit 0 else exit 1

let () =
  let has a = Array.length Sys.argv > 1 && Array.mem a Sys.argv in
  let keyed key default =
    Array.fold_left
      (fun acc a ->
        match String.split_on_char '=' a with
        | [ k; v ] when k = key -> ( match int_of_string_opt v with
                                     | Some n -> n
                                     | None -> acc)
        | _ -> acc)
      default Sys.argv
  in
  if has "fuzz" then
    fuzz_run ~count:(keyed "count" 200) ~seed:(keyed "seed" 0)
      ~schedules:(keyed "schedules" 2)
      ~profile_all:(keyed "profile_all" 0 <> 0);
  if has "profile" then begin
    profile_run ();
    exit 0
  end;
  if has "seq_core" then begin
    seq_core_run ~record:(has "record") ();
    exit 0
  end;
  if has "alloc" then begin
    alloc_run ~record:(has "record") ();
    exit 0
  end;
  if has "par_and" then begin
    par_and_sweep ();
    exit 0
  end;
  if has "tabling" then begin
    tabling_run ();
    exit 0
  end;
  if has "serve" then begin
    serve_run ~clients:(keyed "clients" 4) ~queries:(keyed "queries" 25);
    exit 0
  end;
  let par_or_only = has "par_or" in
  if not par_or_only then begin
    let tests = paper_tests @ extra_tests @ ablation_tests in
    Format.printf "benchmarking %d targets (wall-clock per regeneration run)@."
      (List.length tests);
    let results = benchmark tests in
    let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
    List.iter
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> Format.printf "%-28s %12.3f ms/run@." name (ns /. 1e6)
        | Some _ | None -> Format.printf "%-28s (no estimate)@." name)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
  end;
  par_or_sweep ()
