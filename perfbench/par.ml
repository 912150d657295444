(* The domains-engine probe of every traced run: the fixed cost of one
   run at 2 domains, and the paper queries at seq, par@1 and par@2 with
   the sharing counters of the par@2 runs.

   The par layer's own workload, solve_par2 (the solve passes on Par_or
   at 2 domains), is not run.  A light query's time there is mostly the
   spawn and join of its domains, which waits on the other vCPU: its p50
   read 0.36 ms in one stretch of the host and 1.25 ms in another where
   the calibration loop on both vCPUs read the same 2x slowdown, so no
   host-speed reading could steady it. *)

module Engine = Ace_core.Engine
module Stats = Ace_machine.Stats
module Metrics = Ace_obs.Metrics
module Program = Ace_lang.Program

let par1 =
  { Solve.par2 with Solve.config = { Solve.par2.Solve.config with agents = 1 } }

type probe = {
  fixed : Stat.samples;  (* ms per trivial run at 2 domains *)
  times : (string * Stat.samples array) list;  (* per program: seq, par1, par2 *)
  stats : Stats.t;       (* summed over the par@2 runs *)
  mutable runs : int;    (* par@2 runs *)
  mutable busy_ns : int;
  mutable idle_ns : int;
  mutable attempted : int;
  mutable failed : int;
}

let timed_run engine prepared text =
  let goal = (Program.parse_query text).Program.goal in
  let t0 = Stat.now_ns () in
  let r = Engine.run engine.Solve.kind engine.Solve.config prepared goal in
  (Stat.ms_of_ns (Stat.now_ns () - t0), r)

(* [fixed_runs] trivial runs, then paper rounds until [seconds] pass. *)
let probe ?(fixed_runs = 1200) (inputs : Solve.inputs) ~seconds =
  let npaper = List.length Gen.paper_programs in
  let progs, _ = Solve.prepare_all (Span.create ()) (Array.sub inputs.Solve.texts 0 npaper) in
  let trivial = Engine.prepare_string "t." in
  let p =
    { fixed = Stat.samples ();
      times = List.map (fun (name, _, _) -> (name, Array.init 3 (fun _ -> Stat.samples ())))
          Gen.paper_programs;
      stats = Stats.create (); runs = 0; busy_ns = 0; idle_ns = 0; attempted = 0; failed = 0 }
  in
  for _ = 1 to fixed_runs do
    let ms, r = timed_run Solve.par2 trivial "t" in
    Stat.add p.fixed ms;
    p.attempted <- p.attempted + 1;
    if List.length r.Engine.solutions <> 1 then p.failed <- p.failed + 1
  done;
  let deadline = Stat.now_ns () + int_of_float (seconds *. 1e9) in
  let round = ref 0 in
  while !round < 2 || Stat.now_ns () < deadline do
    List.iteri
      (fun i (name, _, query) ->
        let engines = [| Solve.seq; par1; Solve.par2 |] in
        for k = 0 to 2 do
          (* rotate the engine order round by round *)
          let e = (k + !round) mod 3 in
          let ms, r = timed_run engines.(e) progs.(i) query in
          Stat.add (List.assoc name p.times).(e) ms;
          p.attempted <- p.attempted + 1;
          if not (Solve.check (inputs.Solve.paper_expect name) r.Engine.solutions) then begin
            p.failed <- p.failed + 1;
            Printf.eprintf "perfbench: par probe: wrong answer for %s\n%!" name
          end;
          if e = 2 then begin
            p.runs <- p.runs + 1;
            Stats.merge_into ~into:p.stats r.Engine.stats;
            List.iter
              (fun u ->
                p.busy_ns <- p.busy_ns + u.Metrics.u_busy_ns;
                p.idle_ns <- p.idle_ns + u.Metrics.u_idle_ns)
              (Metrics.utilization r.Engine.metrics)
          end
        done)
      Gen.paper_programs;
    incr round
  done;
  p

let metrics p =
  let fixed = Stat.sorted_copy (Stat.to_array p.fixed) in
  let geo f =
    Stat.geomean
      (Array.of_list
         (List.map
            (fun (_, t) ->
              let m e = Stat.median (Stat.to_array t.(e)) in
              f (m 0) (m 1) (m 2))
            p.times))
  in
  let st = p.stats in
  let per_run x = float_of_int x /. float_of_int (max 1 p.runs) in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  [ ("par.fixed_ms_p50", Stat.quantile_sorted fixed 0.5, "ms");
    ("par.fixed_ms_p99", Stat.quantile_sorted fixed (Stat.tail_quantile (Array.length fixed)), "ms");
    ("par.p1_over_seq", geo (fun seq p1 _ -> p1 /. seq), "1");
    ("par.speedup_p2", geo (fun seq _ p2 -> seq /. p2), "1");
    ("par.busy_frac", ratio p.busy_ns (p.busy_ns + p.idle_ns), "1");
    ("par.idle_ms_per_op", per_run p.idle_ns /. 1e6, "ms");
    ("par.steals_per_op", per_run st.Stats.steals, "count");
    ("par.steal_polls_per_steal", ratio st.Stats.polls st.Stats.steals, "count");
    ("par.copies_per_op", per_run st.Stats.copies, "count");
    ("par.copied_cells_per_steal", ratio st.Stats.copied_cells st.Stats.steals, "count") ]
