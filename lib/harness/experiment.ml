(* Experiment descriptors and the sweep runner.

   An experiment fixes a benchmark workload, an engine, one optimization
   under study and a processor axis; running it measures simulated
   execution time with the optimization off and on at every processor
   count, which is exactly the row structure of the paper's tables
   ("unoptimized/optimized (±x%)"). *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Programs = Ace_benchmarks.Programs

type optimization = Lpco | Lao | Spo | Pdo | All

let optimization_to_string = function
  | Lpco -> "lpco"
  | Lao -> "lao"
  | Spo -> "spo"
  | Pdo -> "pdo"
  | All -> "all"

let apply_optimization config = function
  | Lpco -> { config with Config.lpco = true }
  | Lao -> { config with Config.lao = true }
  | Spo -> { config with Config.spo = true }
  | Pdo -> { config with Config.pdo = true }
  | All -> { config with Config.lpco = true; lao = true; spo = true; pdo = true }

type workload = {
  w_label : string;      (* row label, e.g. "map1" or "matrix mult(12)" *)
  w_benchmark : string;  (* Programs registry name *)
  w_size : int;
}

let workload ?label ?size name =
  let b = Programs.find name in
  let w_size = Option.value size ~default:b.Programs.default_size in
  { w_label = Option.value label ~default:name; w_benchmark = name; w_size }

type t = {
  id : string;            (* "table1" ... "figure8" *)
  title : string;
  paper_ref : string;     (* e.g. "Table 1" *)
  optimization : optimization;
  workloads : workload list;
  processors : int list;
}

(* One measurement cell. *)
type cell = {
  unopt : int; (* simulated cycles, optimization off *)
  opt : int;   (* simulated cycles, optimization on *)
  unopt_stats : Ace_machine.Stats.t;
  opt_stats : Ace_machine.Stats.t;
  unopt_metrics : Ace_obs.Metrics.t; (* per-agent shards behind the stats *)
  opt_metrics : Ace_obs.Metrics.t;
}

let improvement_percent cell =
  if cell.unopt = 0 then 0.0
  else 100.0 *. float_of_int (cell.unopt - cell.opt) /. float_of_int cell.unopt

type row = { label : string; cells : cell list (* one per processor count *) }

type results = { experiment : t; rows : row list }

(* Runs one (workload, processors, optimization-state) point. *)
let run_point ~workload:w ~agents ~config =
  let b = Programs.find w.w_benchmark in
  let program = b.Programs.program w.w_size in
  let query = b.Programs.query w.w_size in
  let config = { config with Config.agents } in
  Engine.solve_program b.Programs.kind config ~program ~query

let run_cell ~workload ~agents ~optimization =
  let base = Config.default in
  let unopt_result = run_point ~workload ~agents ~config:base in
  let opt_result =
    run_point ~workload ~agents ~config:(apply_optimization base optimization)
  in
  {
    unopt = Option.get unopt_result.Engine.cycles;
    opt = Option.get opt_result.Engine.cycles;
    unopt_stats = unopt_result.Engine.stats;
    opt_stats = opt_result.Engine.stats;
    unopt_metrics = unopt_result.Engine.metrics;
    opt_metrics = opt_result.Engine.metrics;
  }

let run ?(progress = fun _ -> ()) experiment =
  let rows =
    List.map
      (fun w ->
        progress w.w_label;
        let cells =
          List.map
            (fun agents ->
              run_cell ~workload:w ~agents ~optimization:experiment.optimization)
            experiment.processors
        in
        { label = w.w_label; cells })
      experiment.workloads
  in
  { experiment; rows }

(* ------------------------------------------------------------------ *)
(* The paper's experiments                                             *)
(* ------------------------------------------------------------------ *)

let table1 =
  {
    id = "table1";
    title = "LPCO: savings in execution time (forward execution only)";
    paper_ref = "Table 1";
    optimization = Lpco;
    workloads = [ workload ~label:"map2" "map2"; workload ~label:"occur(5)" "occur" ];
    processors = [ 1; 3; 5; 10 ];
  }

let table2 =
  {
    id = "table2";
    title = "LPCO with backward execution";
    paper_ref = "Table 2";
    optimization = Lpco;
    workloads =
      [ workload ~label:"matrix" "matrix_bt";
        workload ~label:"pderiv" "pderiv_bt";
        workload ~label:"map1" "map1";
        workload ~label:"annotator" "annotator" ];
    processors = [ 1; 3; 5; 10 ];
  }

let figure5 =
  {
    id = "figure5";
    title = "Speedups on backward execution (with/without LPCO)";
    paper_ref = "Figure 5";
    optimization = Lpco;
    workloads =
      [ workload ~label:"map" "map1";
        workload ~label:"matrix mult" "matrix_bt";
        workload ~label:"pderiv" "pderiv_bt" ];
    processors = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  }

let table3 =
  {
    id = "table3";
    title = "Improvements using LAO";
    paper_ref = "Table 3";
    optimization = Lao;
    workloads =
      [ workload ~label:"queen1" "queen1";
        workload ~label:"queen2" "queen2";
        workload ~label:"puzzle" "puzzle";
        workload ~label:"ancestors" "ancestors";
        workload ~label:"members" "members";
        workload ~label:"maps" "maps" ];
    processors = [ 1; 2; 4; 8; 10 ];
  }

let table4 =
  {
    id = "table4";
    title = "Shallow parallelism optimization";
    paper_ref = "Table 4";
    optimization = Spo;
    workloads =
      [ workload ~label:"matrix mult" "matrix";
        workload ~label:"takeuchi" "takeuchi";
        workload ~label:"hanoi" "hanoi";
        workload ~label:"occur" "occur";
        workload ~label:"bt_cluster" "bt_cluster";
        workload ~label:"annotator" "annotator" ];
    processors = [ 1; 3; 5; 10 ];
  }

let figure8 =
  {
    id = "figure8";
    title = "Execution time with shallow parallelism optimization";
    paper_ref = "Figure 8";
    optimization = Spo;
    workloads =
      [ workload ~label:"poccur" "occur";
        workload ~label:"annotator" "annotator";
        workload ~label:"hanoi" "hanoi" ];
    processors = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  }

let table5 =
  {
    id = "table5";
    title = "Processor determinacy optimization";
    paper_ref = "Table 5";
    optimization = Pdo;
    workloads =
      [ workload ~label:"matrix mult" "matrix";
        workload ~label:"quick sort" "quick_sort";
        workload ~label:"takeuchi" "takeuchi";
        workload ~label:"poccur(5)" "occur";
        workload ~label:"bt_cluster" "bt_cluster";
        workload ~label:"annotator" "annotator" ];
    processors = [ 1; 3; 5; 10 ];
  }

let all = [ table1; table2; figure5; table3; table4; figure8; table5 ]

let find id =
  match List.find_opt (fun e -> String.equal e.id id) all with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Experiment.find: unknown experiment %s" id)
