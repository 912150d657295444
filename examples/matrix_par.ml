(* And-parallel matrix multiplication: speedup curves and the effect of
   each and-parallel optimization (LPCO, SPO, PDO) separately and
   together.

     dune exec examples/matrix_par.exe          # 10x10
     dune exec examples/matrix_par.exe -- 14
*)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Stats = Ace_machine.Stats
module Programs = Ace_benchmarks.Programs

let variants =
  [ ("none", Config.default);
    ("lpco", { Config.default with lpco = true });
    ("spo", { Config.default with spo = true });
    ("pdo", { Config.default with pdo = true });
    ("all", Config.all_optimizations ()) ]

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 10 in
  let b = Programs.find "matrix" in
  let program = b.Programs.program n and query = b.Programs.query n in
  Format.printf "matrix multiplication %dx%d on the and-parallel engine@.@." n n;
  Format.printf "%-6s" "opts";
  List.iter (fun p -> Format.printf "%10s" (Printf.sprintf "P=%d" p)) [ 1; 2; 4; 8 ];
  Format.printf "%12s@." "speedup@8";
  List.iter
    (fun (name, config) ->
      let times =
        List.map
          (fun agents ->
            Option.get
              (Engine.solve_program Engine.And_parallel
                 { config with Config.agents }
                 ~program ~query)
                .Engine.cycles)
          [ 1; 2; 4; 8 ]
      in
      Format.printf "%-6s" name;
      List.iter (fun t -> Format.printf "%10d" t) times;
      (match times with
       | t1 :: _ ->
         let t8 = List.nth times 3 in
         Format.printf "%11.2fx@." (float_of_int t1 /. float_of_int t8)
       | [] -> Format.printf "@."))
    variants;
  (* structural view at 4 agents *)
  Format.printf "@.structural counters at P=4:@.";
  List.iter
    (fun (name, config) ->
      let r =
        Engine.solve_program Engine.And_parallel
          { config with Config.agents = 4 }
          ~program ~query
      in
      let s = r.Engine.stats in
      Format.printf
        "  %-6s frames %4d  nesting %2d  markers %5d  avoided %5d  time %d@."
        name s.Stats.frames s.Stats.max_frame_nesting
        (s.Stats.input_markers + s.Stats.end_markers)
        s.Stats.markers_avoided (Option.get r.Engine.cycles))
    variants
