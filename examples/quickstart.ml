(* Quickstart: consult a small program and run the same query on all three
   engines.

     dune exec examples/quickstart.exe
*)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine

let program =
  {|
% A tiny route planner.  Parallel conjunctions ('&') mark independent
% subgoals, exactly as in the paper's ACE system.
edge(amsterdam, berlin, 650).   edge(berlin, prague, 350).
edge(amsterdam, brussels, 210). edge(brussels, paris, 310).
edge(paris, lyon, 470).         edge(prague, vienna, 330).
edge(berlin, vienna, 680).      edge(lyon, geneva, 150).

route(A, B, [A, B], D) :- edge(A, B, D).
route(A, C, [A|Rest], D) :- edge(A, B, D1), route(B, C, Rest, D2), D is D1 + D2.

% independent work over a list of queries, run in and-parallel
cost_pair(A, B, D) :- route(A, B, _, D).
survey(D1, D2) :- cost_pair(amsterdam, vienna, D1) & cost_pair(amsterdam, geneva, D2).
|}

let show name (result : Engine.result) =
  Format.printf "--- %s ---@." name;
  List.iter
    (fun s -> Format.printf "  %a@." Ace_term.Pp.pp s)
    result.Engine.solutions;
  Format.printf "  (%d solutions, %d simulated cycles)@.@."
    (List.length result.Engine.solutions)
    (Option.get result.Engine.cycles)

let () =
  (* 1. All routes Amsterdam -> Vienna, sequential engine. *)
  show "sequential: route(amsterdam, vienna, Path, D)"
    (Engine.solve_program Engine.Sequential Config.default ~program
       ~query:"route(amsterdam, vienna, Path, D)");
  (* 2. The same search explored by 4 or-parallel workers. *)
  show "or-parallel (4 workers): route(amsterdam, vienna, Path, D)"
    (Engine.solve_program Engine.Or_parallel
       { Config.default with agents = 4; lao = true }
       ~program ~query:"route(amsterdam, vienna, Path, D)");
  (* 3. Two independent surveys in and-parallel with all optimizations. *)
  show "and-parallel (2 agents, all optimizations): survey(D1, D2)"
    (Engine.solve_program Engine.And_parallel
       (Config.all_optimizations ~agents:2 ())
       ~program ~query:"survey(D1, D2)")
