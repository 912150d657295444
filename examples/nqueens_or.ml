(* Or-parallel n-queens: sweep workers with and without the Last
   Alternative Optimization, showing the paper's Table 3 effect on a
   single workload.

     dune exec examples/nqueens_or.exe          # 6 queens
     dune exec examples/nqueens_or.exe -- 7
*)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Stats = Ace_machine.Stats
module Programs = Ace_benchmarks.Programs

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 6 in
  let b = Programs.find "queen2" in
  let program = b.Programs.program n and query = b.Programs.query n in
  Format.printf "n-queens (incremental placement), board size %d@." n;
  Format.printf "%4s %12s %12s %9s %16s %14s@." "P" "time(unopt)" "time(LAO)"
    "gain" "cp alloc (u/o)" "scans (u/o)";
  let count = ref 0 in
  List.iter
    (fun agents ->
      let run lao =
        Engine.solve_program Engine.Or_parallel
          { Config.default with agents; lao }
          ~program ~query
      in
      let unopt = run false and opt = run true in
      let t_unopt = Option.get unopt.Engine.cycles
      and t_opt = Option.get opt.Engine.cycles in
      count := List.length unopt.Engine.solutions;
      Format.printf "%4d %12d %12d %8.1f%% %10d/%-6d %8d/%-6d@." agents
        t_unopt t_opt
        (100.0 *. float_of_int (t_unopt - t_opt) /. float_of_int t_unopt)
        unopt.Engine.stats.Stats.cp_allocs opt.Engine.stats.Stats.cp_allocs
        unopt.Engine.stats.Stats.or_scans opt.Engine.stats.Stats.or_scans)
    [ 1; 2; 4; 8; 10 ];
  Format.printf "(%d solutions at every configuration)@." !count
