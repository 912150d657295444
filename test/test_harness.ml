(* Experiment harness: registry completeness, sweep mechanics, report
   rendering and the extra (overhead/memory) measurements. *)

module Experiment = Ace_harness.Experiment
module Report = Ace_harness.Report
module Extras = Ace_harness.Extras

let test_registry_covers_paper () =
  let ids = List.map (fun e -> e.Experiment.id) Experiment.all in
  Alcotest.(check (list string)) "every table and figure present"
    [ "table1"; "table2"; "figure5"; "table3"; "table4"; "figure8"; "table5" ]
    ids;
  List.iter
    (fun e ->
      Alcotest.(check bool) (e.Experiment.id ^ " has workloads") true
        (e.Experiment.workloads <> []);
      Alcotest.(check bool) (e.Experiment.id ^ " has processors") true
        (e.Experiment.processors <> []))
    Experiment.all

let test_paper_processor_axes () =
  Alcotest.(check (list int)) "tables 1/2/4/5 axis" [ 1; 3; 5; 10 ]
    Experiment.table1.Experiment.processors;
  Alcotest.(check (list int)) "table 3 axis" [ 1; 2; 4; 8; 10 ]
    Experiment.table3.Experiment.processors;
  Alcotest.(check int) "figures sweep 1..10" 10
    (List.length Experiment.figure5.Experiment.processors)

let tiny_experiment =
  {
    Experiment.id = "tiny";
    title = "tiny sweep for tests";
    paper_ref = "none";
    optimization = Experiment.Lpco;
    workloads = [ Experiment.workload ~size:6 "map2" ];
    processors = [ 1; 2 ];
  }

let test_run_sweep () =
  let results = Experiment.run tiny_experiment in
  match results.Experiment.rows with
  | [ row ] ->
    Alcotest.(check int) "one cell per processor count" 2
      (List.length row.Experiment.cells);
    List.iter
      (fun cell ->
        Alcotest.(check bool) "times positive" true
          (cell.Experiment.unopt > 0 && cell.Experiment.opt > 0))
      row.Experiment.cells
  | _ -> Alcotest.fail "expected one row"

let test_improvement_percent () =
  let stats () = Ace_machine.Stats.create () in
  let cell unopt opt =
    {
      Experiment.unopt;
      opt;
      unopt_stats = stats ();
      opt_stats = stats ();
      unopt_metrics = Ace_obs.Metrics.of_stats (stats ());
      opt_metrics = Ace_obs.Metrics.of_stats (stats ());
    }
  in
  Alcotest.(check (float 0.001)) "50% faster" 50.0
    (Experiment.improvement_percent (cell 100 50));
  Alcotest.(check (float 0.001)) "10% slower" (-10.0)
    (Experiment.improvement_percent (cell 100 110));
  Alcotest.(check (float 0.001)) "zero base" 0.0
    (Experiment.improvement_percent (cell 0 10))

let test_apply_optimization () =
  let base = Ace_machine.Config.default in
  let lpco = Experiment.apply_optimization base Experiment.Lpco in
  Alcotest.(check bool) "lpco only" true
    (lpco.Ace_machine.Config.lpco && not lpco.Ace_machine.Config.lao);
  let all = Experiment.apply_optimization base Experiment.All in
  Alcotest.(check bool) "all on" true
    (all.Ace_machine.Config.lpco && all.Ace_machine.Config.lao
     && all.Ace_machine.Config.spo && all.Ace_machine.Config.pdo)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_renders () =
  let results = Experiment.run tiny_experiment in
  let text = Report.to_string results in
  Alcotest.(check bool) "mentions workload" true
    (String.length text > 0 && contains text "map2" && contains text "P=2")

let test_overhead_direction () =
  (* on a tiny deterministic workload, the optimized engine must be
     at least as close to sequential as the unoptimized one *)
  let rows =
    Extras.run_overhead ~benchmarks:[ "map2"; "occur" ]
      ~size_of:(fun _ -> 8) ()
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Extras.o_label ^ " overhead reduced") true
        (r.Extras.opt_overhead <= r.Extras.unopt_overhead);
      Alcotest.(check bool) (r.Extras.o_label ^ " parallel slower than seq at P=1")
        true
        (r.Extras.unopt_time >= r.Extras.seq_time))
    rows

let test_memory_direction () =
  let rows = Extras.run_memory ~benchmarks:[ "map2" ] ~agents:3 () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "LPCO reduces stack words" true
        (r.Extras.opt_words < r.Extras.unopt_words))
    rows

module Bench = Ace_harness.Bench
module Json = Ace_obs.Json
module Engine = Ace_core.Engine

let key suite =
  { Bench.suite; benchmark = "b"; engine = "seq/c"; domains = 1; config = "default" }

(* The timed row of a trivial goal, sampled by the bench policy. *)
let trivial_rows () =
  let prepared = Engine.prepare_string "p(1).\n" in
  let goal = (Ace_lang.Program.parse_query "p(X)").Ace_lang.Program.goal in
  Bench.run (key "t")
    (fun () -> Engine.run Engine.Sequential Ace_machine.Config.default prepared goal)
    [ ("solutions", fun r -> float_of_int (List.length r.Engine.solutions)) ]

let test_bench_sampler () =
  match trivial_rows () with
  | [ wall; sols ] ->
    Alcotest.(check string) "timed row first" "wall_ms" wall.Bench.metric;
    Alcotest.(check bool) "5 to 31 samples" true (wall.Bench.n >= 5 && wall.Bench.n <= 31);
    Alcotest.(check bool) "iqr >= 0" true (wall.Bench.iqr >= 0.);
    Alcotest.(check (pair int (float 0.))) "a deterministic count is one reading"
      (1, 1.) (sols.Bench.n, sols.Bench.median)
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_bench_schema () =
  let rows =
    trivial_rows ()
    @ [ Bench.count (key "c") "steals" [| 3.; 1.; 2.; 2. |];
        Bench.timed (key "q") "latency_ms" [| 0.5; 0.25; 1.0 |] ]
  in
  let file = Filename.temp_file "bench" ".json" in
  Bench.write file rows;
  let text = In_channel.with_open_text file In_channel.input_all in
  Alcotest.(check bool) "read back" true (Bench.read file = rows);
  Sys.remove file;
  let doc =
    match Json.parse text with Ok d -> d | Error m -> Alcotest.fail m
  in
  let has keys j = List.for_all (fun k -> Json.member k j <> None) keys in
  (match Json.member "host" doc with
   | Some h ->
     Alcotest.(check bool) "host keys" true (has [ "cores"; "ocaml"; "git_rev" ] h)
   | None -> Alcotest.fail "no host");
  let num k j = match Json.member k j with Some (Json.Num f) -> f | _ -> nan in
  match Option.bind (Json.member "rows" doc) Json.to_list with
  | None -> Alcotest.fail "no rows"
  | Some js ->
    Alcotest.(check int) "every row written" (List.length rows) (List.length js);
    List.iter
      (fun j ->
        Alcotest.(check bool) "nine fields" true
          (has [ "suite"; "benchmark"; "engine"; "domains"; "config"; "metric";
                 "median"; "iqr"; "n" ] j);
        Alcotest.(check bool) "median is a number" false (Float.is_nan (num "median" j));
        Alcotest.(check bool) "iqr >= 0" true (num "iqr" j >= 0.);
        Alcotest.(check bool) "n >= 1" true (num "n" j >= 1.))
      js

(* Every pinned line must name a row that ran, and parse. *)
let test_seq_core_pins () =
  let expected = "queen1 seq 4 d1\nqueen2 seq 40 d2\n" in
  let ran = [ (("queen1", "seq"), (4, "d1")); (("queen2", "seq"), (40, "d2")) ] in
  Alcotest.(check (list string)) "all pinned rows match" []
    (Extras.check_seq_core ~expected ran);
  Alcotest.(check int) "a pinned row that did not run fails" 1
    (List.length (Extras.check_seq_core ~expected [ List.hd ran ]));
  Alcotest.(check int) "a line that does not parse fails" 1
    (List.length
       (Extras.check_seq_core ~expected:"queen1 seq 4 d1\nqueen2 se" ran))

let test_alloc_pins () =
  let row b w = Bench.count { (key "alloc") with Bench.benchmark = b } "words_per_solution" [| w |] in
  let rows = [ row "queen1" 100.; row "queen2" 50. ] in
  let expected = "queen1 seq/c 100.0\nqueen2 seq/c 50.0\n" in
  Alcotest.(check (list string)) "within the pins" [] (Extras.check_alloc ~expected rows);
  Alcotest.(check int) "over 10% fails" 1
    (List.length (Extras.check_alloc ~expected [ row "queen1" 200.; row "queen2" 50. ]));
  Alcotest.(check int) "a pinned row that did not run fails" 1
    (List.length (Extras.check_alloc ~expected [ List.hd rows ]));
  Alcotest.(check int) "a line that does not parse fails" 1
    (List.length (Extras.check_alloc ~expected:"queen1 seq/c 100.0\nqueen2 seq/c" rows))

let suite =
  [ Alcotest.test_case "registry covers paper" `Quick test_registry_covers_paper;
    Alcotest.test_case "processor axes" `Quick test_paper_processor_axes;
    Alcotest.test_case "run sweep" `Quick test_run_sweep;
    Alcotest.test_case "improvement percent" `Quick test_improvement_percent;
    Alcotest.test_case "apply optimization" `Quick test_apply_optimization;
    Alcotest.test_case "report renders" `Quick test_report_renders;
    Alcotest.test_case "overhead direction" `Quick test_overhead_direction;
    Alcotest.test_case "memory direction" `Quick test_memory_direction;
    Alcotest.test_case "bench sampler" `Quick test_bench_sampler;
    Alcotest.test_case "bench schema" `Quick test_bench_schema;
    Alcotest.test_case "seq_core pins" `Quick test_seq_core_pins;
    Alcotest.test_case "alloc pins" `Quick test_alloc_pins ]
