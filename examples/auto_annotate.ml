(* Automatic parallelization: take an *unannotated* program with mode
   declarations, run the strict-independence annotator (the stand-in for
   &ACE's parallelizing compiler), show what it found, and compare the
   sequential run with the auto-annotated and-parallel run.

     dune exec examples/auto_annotate.exe
*)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Program = Ace_lang.Program
module Database = Ace_lang.Database
module Clause = Ace_lang.Clause
module Independence = Ace_analysis.Independence

let source =
  {|
:- mode(size(+, -)).
:- mode(depth(+, -)).
:- mode(mirror(+, -)).
:- mode(analyze(+, -)).

size(leaf, 1).
size(node(L, R), S) :- size(L, SL), size(R, SR), S is SL + SR + 1.

depth(leaf, 1).
depth(L, D) :- dstep(L, D).
dstep(node(L, R), D) :- depth(L, DL), depth(R, DR), D is max(DL, DR) + 1.

mirror(leaf, leaf).
mirror(node(L, R), node(MR, ML)) :- mirror(L, ML), mirror(R, MR).

% three independent analyses of the same ground tree
analyze(T, result(S, D, M)) :- size(T, S), depth(T, D), mirror(T, M).
|}

let tree depth =
  let rec go d = if d = 0 then "leaf" else Printf.sprintf "node(%s,%s)" (go (d - 1)) (go (d - 1)) in
  go depth

let () =
  let program = Program.consult_string source in
  let annotated = Independence.annotate_program program in
  Format.printf "clauses after automatic strict-independence annotation:@.";
  List.iter
    (fun (name, arity) ->
      List.iter
        (fun c ->
          let t = Clause.to_term c in
          if Clause.has_par c.Clause.body then
            Format.printf "  PARALLELISED:  %a@." Ace_term.Pp.pp t)
        (Database.clauses_of annotated name arity))
    (Database.predicates annotated);
  Format.printf "@.";
  let query =
    Program.parse_query (Printf.sprintf "analyze(%s, R)" (tree 7))
  in
  let seq =
    Engine.solve Engine.Sequential Config.default (Program.db program)
      query.Program.goal
  in
  let par agents =
    Engine.solve Engine.And_parallel
      (Config.all_optimizations ~agents ())
      annotated query.Program.goal
  in
  let cycles r = Option.get r.Engine.cycles in
  Format.printf "sequential:            %8d cycles@." (cycles seq);
  List.iter
    (fun agents ->
      let r = par agents in
      Format.printf "and-parallel (P = %d): %8d cycles  (speedup %.2fx, %d solutions)@."
        agents (cycles r)
        (float_of_int (cycles (par 1)) /. float_of_int (cycles r))
        (List.length r.Engine.solutions))
    [ 1; 2; 4; 8 ]
