(* ace_experiments: regenerate the paper's tables and figures.

     ace_experiments                 # everything
     ace_experiments table3 figure5 # a subset
     ace_experiments --list
     ace_experiments --structural table2
*)

module Experiment = Ace_harness.Experiment
module Report = Ace_harness.Report
module Extras = Ace_harness.Extras

let run_one ~structural id =
  match id with
  | "overhead" ->
    let rows = Extras.run_overhead () in
    Format.printf "@[<v>%a@]@." Extras.pp_overhead rows
  | "memory" ->
    let rows = Extras.run_memory () in
    Format.printf "@[<v>%a@]@." Extras.pp_memory rows
  | id ->
    let e = Experiment.find id in
    let progress label = Format.eprintf "  running %s: %s...@." id label in
    let results = Experiment.run ~progress e in
    Format.printf "@[<v>%a@]@." Report.pp_results results;
    if structural then Format.printf "@[<v>%a@]@." Report.pp_structural results

let all_ids =
  List.map (fun (e : Experiment.t) -> e.Experiment.id) Experiment.all
  @ [ "overhead"; "memory" ]

let main list_only structural ids =
  if list_only then begin
    List.iter print_endline all_ids;
    0
  end
  else begin
    let ids = if ids = [] then all_ids else ids in
    match List.find_opt (fun id -> not (List.mem id all_ids)) ids with
    | Some bad ->
      Format.eprintf "unknown experiment %s (try --list)@." bad;
      2
    | None ->
      List.iter (run_one ~structural) ids;
      0
  end

open Cmdliner

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
         ~doc:"Experiment ids (default: all).")

let list_only =
  Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")

let structural =
  Arg.(value & flag & info [ "structural" ]
         ~doc:"Also print the structural counters that explain each result.")

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v (Cmd.info "ace_experiments" ~doc)
    Term.(const main $ list_only $ structural $ ids)

let () = exit (Cmd.eval' cmd)
