(* ace_run: consult a Prolog program and run a query on one of the four
   engines, printing solutions and execution statistics.

     ace_run --engine and --agents 4 --lpco --spo program.pl 'map2([1,2],X)'
     ace_run --engine par --agents 4 -O --par-and program.pl 'main(X)'
     echo 'app([],L,L). ...' | ace_run - 'app(X,Y,[1,2,3])'
*)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Program = Ace_lang.Program
module Trace = Ace_obs.Trace
module Metrics = Ace_obs.Metrics
module Prof = Ace_obs.Prof

let read_stdin () =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf stdin 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let write_file path contents = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* --check: differential fuzzing of all four engines (lib/check). *)
let run_check ~count ~seed ~schedules ~chaos_spec ~mutate =
  let ( let* ) r f = match r with Error m -> Error m | Ok v -> f v in
  let parsed =
    let* extra_chaos =
      match chaos_spec with
      | None -> Ok None
      | Some s -> (
        match Ace_sched.Chaos.of_spec s with
        | Ok c -> Ok (Some c)
        | Error m -> Error (Printf.sprintf "--check-chaos: %s" m))
    in
    let* mutation =
      match mutate with
      | None -> Ok None
      | Some s -> (
        match String.split_on_char ':' s with
        | [ e; i ] -> (
          match (Engine.kind_of_string e, int_of_string_opt i) with
          | Ok kind, Some drop ->
            Ok (Some { Ace_check.Oracle.m_engine = kind; m_drop = drop })
          | Error m, _ -> Error m
          | _, None -> Error "--check-mutate: clause index must be an integer")
        | _ -> Error "--check-mutate expects ENGINE:CLAUSE (e.g. or:0)")
    in
    Ok (extra_chaos, mutation)
  in
  match parsed with
  | Error m ->
    prerr_endline m;
    2
  | Ok (extra_chaos, mutation) ->
    let report =
      Ace_check.Fuzz.run ~count ~seed ~schedules ?mutation ?extra_chaos
        ~log:(Format.eprintf "check: %s@.")
        ()
    in
    Format.printf "%a" Ace_check.Fuzz.pp_report report;
    if Ace_check.Fuzz.ok report then 0 else 1

(* The command-line option that sets each checked {!Config} field. *)
let option_of_field = function
  | "agents" -> "--agents"
  | "seq_threshold" -> "--granularity"
  | "grain" -> "--grain"
  | "table_max_answers" -> "--table-max-answers"
  | "max_solutions" -> "--limit"
  | field -> field

let run check check_count check_seed check_schedules check_chaos check_mutate
    check_code_mutate check_table_mutate check_store_mutate source query engine agents compile
    lpco lao spo pdo all par_and gc grain limit deadline table_max show_stats
    verbose_stats annotate trace_file trace_jsonl trace_buf stats_json
    utilization profile profile_json profile_folded =
  (match check_code_mutate with
   | Some k -> Ace_lang.Code.mutation := Some k
   | None -> ());
  (match check_table_mutate with
   | Some k -> Ace_lang.Table.mutation := Some k
   | None -> ());
  (match check_store_mutate with
   | Some k -> Ace_lang.Store.mutation := Some k
   | None -> ());
  if check then
    run_check ~count:check_count ~seed:check_seed ~schedules:check_schedules
      ~chaos_spec:check_chaos ~mutate:check_mutate
  else
  match (source, query) with
  | None, _ | _, None ->
    prerr_endline "ace_run: PROGRAM and QUERY required (or use --check)";
    2
  | Some source, Some query ->
  let program_text =
    if String.equal source "-" then read_stdin ()
    else In_channel.with_open_bin source In_channel.input_all
  in
  match Engine.kind_of_string engine with
  | Error m ->
    prerr_endline m;
    2
  | Ok kind when kind <> Engine.Sequential && not compile ->
    prerr_endline
      "ace_run: --no-compile applies to --engine seq only (and/or always \
       interpret, par always runs compiled code)";
    2
  | Ok kind -> (
    match Engine.check_agents kind agents with
    | Error m ->
      prerr_endline ("ace_run: --agents: " ^ m);
      2
    | Ok () ->
    let config =
      {
        Config.default with
        agents;
        lpco = lpco || all;
        lao = lao || all;
        spo = spo || all;
        pdo = pdo || all;
        par_and;
        seq_threshold = gc;
        grain;
        compile;
        max_solutions = limit;
        table_max_answers = table_max;
      }
    in
    match Config.check config, deadline with
    | Error (field, lo), _ ->
      Printf.eprintf "ace_run: %s must be >= %d\n" (option_of_field field) lo;
      2
    | Ok (), Some ms when ms < 0 ->
      prerr_endline "ace_run: --deadline must be >= 0";
      2
    | Ok (), _ ->
    try
      let program = Program.consult_string program_text in
      let db =
        if annotate then Ace_analysis.Independence.annotate_program program
        else Program.db program
      in
      let q = Program.parse_query query in
      (* A 1-core box "running" 8 domains produces <1x speedups that say
         nothing about the schemas — warn instead of silently misleading. *)
      let cores = Domain.recommended_domain_count () in
      if kind = Engine.Par_or && agents > cores then
        Format.eprintf
          "warning: --agents %d exceeds this host's %d available core(s); \
           wall-clock speedups will not reflect real parallelism@."
          agents cores;
      let tracing = trace_file <> None || trace_jsonl <> None in
      let trace =
        if tracing then Trace.create ~capacity:trace_buf ()
        else Trace.disabled
      in
      let profiling =
        profile || profile_json <> None || profile_folded <> None
      in
      let prof = if profiling then Prof.create () else Prof.disabled in
      let cancel =
        match deadline with
        | Some ms -> Ace_core.Cancel.create ~deadline_ms:ms ()
        | None -> Ace_core.Cancel.none
      in
      let result =
        Engine.solve
          ~opts:{ Engine.default_opts with Engine.trace; prof; cancel }
          kind config db q.Program.goal
      in
      let wall_ms = float_of_int result.Engine.wall_ns /. 1e6 in
      List.iteri
        (fun i solution ->
          Format.printf "solution %d: %a@." (i + 1) Ace_term.Pp.pp solution)
        result.Engine.solutions;
      Format.printf "%d solution(s) in %s%.3f wall-clock ms (%s%s, %a)@."
        (List.length result.Engine.solutions)
        (match result.Engine.cycles with
         | Some cycles -> Printf.sprintf "%d simulated cycles, " cycles
         | None -> "")
        wall_ms
        (Engine.kind_to_string kind)
        (if kind = Engine.Sequential && compile then "/c" else "")
        Config.pp config;
      if show_stats || verbose_stats then
        Format.printf "@[<v>%a@]@."
          (fun ppf -> Ace_machine.Stats.pp ~verbose:verbose_stats ppf)
          result.Engine.stats;
      if utilization then
        Format.printf "%a@." Metrics.pp_utilization result.Engine.metrics;
      (match stats_json with
       | Some path ->
         write_file path (Ace_obs.Json.to_string (Metrics.to_json result.Engine.metrics))
       | None -> ());
      (match trace_file with
       | Some path ->
         write_file path (Trace.to_chrome_json trace);
         Format.eprintf "trace: %d event(s) written to %s (%d dropped)@."
           (Trace.recorded trace) path (Trace.dropped trace)
       | None -> ());
      (match trace_jsonl with
       | Some path -> write_file path (Trace.to_jsonl trace)
       | None -> ());
      if profile then print_string (Prof.report prof);
      (match profile_json with
       | Some path -> write_file path (Ace_obs.Json.to_string (Prof.to_json prof))
       | None -> ());
      (match profile_folded with
       | Some path -> write_file path (Prof.to_folded prof)
       | None -> ());
      (match result.Engine.cancelled with
       | Some reason ->
         (* distinct exit status (the timeout(1) convention) so scripts
            can tell "deadline fired, partial answers above" from both
            success and error *)
         Format.printf
           "cancelled (%s) after %.3f wall-clock ms: the %d solution(s) \
            above are the ones completed before the abort@."
           (Ace_core.Cancel.reason_to_string reason)
           wall_ms
           (List.length result.Engine.solutions);
         124
       | None -> 0)
    with
    | Program.Error msg | Ace_core.Errors.Engine_error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Failure msg ->
      (* an engine that could not finish: the simulators' step cap, a
         failed Domain.spawn *)
      Format.eprintf "error: %s@." msg;
      1
    | Ace_term.Arith.Error msg ->
      Format.eprintf "arithmetic error: %s@." msg;
      1)

(* ------------------------------------------------------------------ *)
(* Command line: flags grouped by area                                 *)
(* ------------------------------------------------------------------ *)

(* The four flag groups.  Each flag carries a one-line synopsis used both
   in the manual (via cmdliner's ~docs sections) and by the pre-parser,
   which answers an unknown flag with the synopsis of the closest group
   only, instead of the whole option list. *)
let g_engine = "ENGINE OPTIONS"
let g_schemas = "OPTIMIZATION SCHEMA OPTIONS"
let g_obs = "OBSERVABILITY OPTIONS"
let g_check = "CHECKING OPTIONS"

let groups =
  [
    ( g_engine,
      [
        ("engine, -e ENGINE", "seq | and | or | par (hardware domains)");
        ("agents, -p N", "processors (par: domains)");
        ("limit, -n N", "stop after N solutions");
        ("deadline MS", "cancel the query after MS milliseconds (exit 124)");
        ("annotate", "run the strict-independence annotator first");
        ("compile", "seq: execute compiled clause code (default)");
        ("no-compile", "seq: interpret clause templates (the oracle reference)");
        ("table-max-answers N", "cap per tabled subgoal (0 = unlimited)");
      ] );
    ( g_schemas,
      [
        ("lpco", "last parallel call optimization");
        ("lao", "last alternative optimization");
        ("spo", "shallow parallelism optimization");
        ("pdo", "processor determinacy optimization");
        ("all-opts, -O", "all four schemas");
        ("par-and", "par engine: run '&' conjunctions in parallel");
        ("granularity CELLS", "sequentialize parallel calls below CELLS");
        ("grain N", "publish nodes with >= N alternatives (par)");
      ] );
    ( g_obs,
      [
        ("stats", "print execution statistics");
        ("verbose-stats", "statistics including zero counters");
        ("trace FILE", "Chrome trace_event JSON of the run");
        ("trace-jsonl FILE", "raw event stream as JSON Lines");
        ("trace-buf N", "per-agent trace ring capacity");
        ("stats-json FILE", "statistics as JSON (totals + shards)");
        ("utilization", "per-agent busy/idle table");
        ("profile", "per-predicate 4-port profile table");
        ("profile-json FILE", "per-predicate profile as JSON");
        ("profile-folded FILE", "folded stacks for flamegraph tooling");
      ] );
    ( g_check,
      [
        ("check", "differential fuzzing of all four engines");
        ("check-count N", "generated cases");
        ("check-seed SEED", "base seed (case i uses SEED+i)");
        ("check-schedules N", "chaos schedules per engine and case");
        ("check-chaos SPEC", "replay one exact chaos spec");
        ("check-mutate ENGINE:CLAUSE", "mutation smoke test");
        ("check-code-mutate K", "compiled-code instruction mutation smoke test");
        ("check-table-mutate K", "answer-table truncation smoke test");
        ("check-store-mutate K", "fact-store index mutation smoke test");
      ] )
  ]

(* An unknown --flag is reported against the group of its best
   edit-distance match, and only that group's flags are listed. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id and cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let flag_names spec =
  (* "engine, -e ENGINE" -> ["engine"; "e"] *)
  String.split_on_char ',' spec
  |> List.filter_map (fun part ->
         match String.split_on_char ' ' (String.trim part) with
         | name :: _ when name <> "" ->
           Some
             (if String.length name > 1 && name.[0] = '-' then
                String.sub name 1 (String.length name - 1)
              else name)
         | _ -> None)

let print_group oc (title, flags) =
  Printf.fprintf oc "%s:\n" title;
  List.iter
    (fun (spec, doc) -> Printf.fprintf oc "  --%-28s %s\n" spec doc)
    flags

let reject_unknown_flag arg =
  let bare =
    let a = if String.length arg > 1 && arg.[1] = '-' then 2 else 1 in
    let s = String.sub arg a (String.length arg - a) in
    match String.index_opt s '=' with Some i -> String.sub s 0 i | None -> s
  in
  let best =
    List.fold_left
      (fun acc (title, flags) ->
        List.fold_left
          (fun acc (spec, _) ->
            List.fold_left
              (fun (d0, g0) name ->
                let d = levenshtein bare name in
                if d < d0 then (d, (title, flags)) else (d0, g0))
              acc (flag_names spec))
          acc flags)
      (max_int, List.hd groups)
      groups
  in
  let _, group = best in
  Printf.eprintf "ace_run: unknown option '%s'.\n" arg;
  print_group stderr group;
  Printf.eprintf "Run 'ace_run --help' for the full option list.\n";
  exit 2

(* The option words that take a value ("--limit", "-n"): a spec's last
   name carries its docv ("limit, -n N"). *)
let value_options =
  List.concat_map
    (fun (_, flags) ->
      List.concat_map
        (fun (spec, _) ->
          match List.rev (String.split_on_char ',' spec) with
          | last :: _ when String.contains (String.trim last) ' ' ->
            List.map
              (fun n -> if String.length n = 1 then "-" ^ n else "--" ^ n)
              (flag_names spec)
          | _ -> [])
        flags)
    groups

(* Cmdliner reads any word that starts with '-' as an option, so
   "--limit -1" would stop at "unknown option '-1'" before
   [Config.check] could name the option.  A value-taking option
   followed by a negative number is joined into one word: "--limit=-1",
   "-n-1". *)
let join_negative_values options argv =
  let rec go = function
    | "--" :: _ as rest -> rest
    | opt :: v :: rest
      when List.mem opt options
           && String.starts_with ~prefix:"-" v
           && int_of_string_opt v <> None ->
      (if opt.[1] = '-' then opt ^ "=" ^ v else opt ^ v) :: go rest
    | w :: rest -> w :: go rest
    | [] -> []
  in
  Array.of_list (go (Array.to_list argv))

(* Every word that looks like an option must name one.  A short option
   that takes a value may carry it glued on ("-n1" is "-n 1"), as
   cmdliner reads it. *)
let check_argv () =
  let known =
    "help" :: "version"
    :: List.concat_map
         (fun (_, flags) -> List.concat_map (fun (s, _) -> flag_names s) flags)
         groups
  in
  Array.iteri
    (fun i arg ->
      if
        i > 0
        && String.length arg > 1
        && arg.[0] = '-'
        && not (String.for_all (fun c -> c = '-') arg)
        && (arg.[1] < '0' || arg.[1] > '9') (* not a negative number *)
      then begin
        let bare =
          let a = if arg.[1] = '-' then 2 else 1 in
          let s = String.sub arg a (String.length arg - a) in
          match String.index_opt s '=' with
          | Some j -> String.sub s 0 j
          | None -> s
        in
        let glued_value = arg.[1] <> '-' && List.mem (String.sub arg 0 2) value_options in
        if not (List.mem bare known || glued_value) then reject_unknown_flag arg
      end)
    Sys.argv

open Cmdliner

let source =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM"
         ~doc:"Prolog source file ('-' for stdin); omitted with --check.")

let query =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"QUERY"
         ~doc:"Goal to solve (final '.' optional); omitted with --check.")

let engine =
  Arg.(value & opt string "seq" & info [ "engine"; "e" ] ~docv:"ENGINE"
         ~docs:g_engine
         ~doc:"Engine: seq, and (&ACE and-parallel), or (simulated MUSE \
               or-parallel), par (hardware and+or parallel on OCaml \
               domains; --agents = domains, and-parallelism with \
               --par-and).")

let agents =
  Arg.(value & opt int 1 & info [ "agents"; "p" ] ~docv:"N" ~docs:g_engine
         ~doc:"Number of simulated processors.")

let flag ~docs names doc = Arg.(value & flag & info names ~docs ~doc)

let limit =
  Arg.(value & opt (some int) None & info [ "limit"; "n" ] ~docv:"N"
         ~docs:g_engine
         ~doc:"Stop after N solutions (0: none, without searching).")

let cmd =
  let doc = "run a query on the ACE engines" in
  Cmd.v
    (Cmd.info "ace_run" ~doc)
    Term.(
      const run
      $ flag ~docs:g_check [ "check" ]
          "Differential fuzzing: generate seeded random programs, run each \
           on all four engines under optimization sweeps and chaos \
           schedules, compare solution multisets, shrink any \
           counterexample and print a replay line.  Exit 1 on any \
           discrepancy."
      $ Arg.(value & opt int 500 & info [ "check-count" ] ~docv:"N"
               ~docs:g_check ~doc:"Number of generated cases for --check.")
      $ Arg.(value & opt int 0 & info [ "check-seed" ] ~docv:"SEED"
               ~docs:g_check
               ~doc:"Base seed for --check; case i uses SEED+i, so a \
                     failure replays with '--check-seed <case seed> \
                     --check-count 1'.")
      $ Arg.(value & opt int 2 & info [ "check-schedules" ] ~docv:"N"
               ~docs:g_check
               ~doc:"Seeded chaos schedules per parallel engine and case \
                     for --check.")
      $ Arg.(value & opt (some string) None & info [ "check-chaos" ]
               ~docv:"SPEC" ~docs:g_check
               ~doc:"Also run every engine under exactly this chaos spec \
                     (as printed in a counterexample replay line), e.g. \
                     'seed=7,steal=150,pub=150,pre=200,jit=250,spin=2048,cycles=64'.")
      $ Arg.(value & opt (some string) None & info [ "check-mutate" ]
               ~docv:"ENGINE:CLAUSE" ~docs:g_check
               ~doc:"Mutation smoke test: drop generated clause CLAUSE from \
                     the program copy given to ENGINE only; --check must \
                     then report a counterexample (exit 1).")
      $ Arg.(value & opt (some int) None & info [ "check-code-mutate" ]
               ~docv:"K" ~docs:g_check
               ~doc:"Compiler mutation smoke test: apply one seeded \
                     structure-preserving instruction rewrite (at index K \
                     mod code length) to every compiled clause head; \
                     --check must then report a counterexample on its \
                     compiled rows (exit 1).")
      $ Arg.(value & opt (some int) None & info [ "check-table-mutate" ]
               ~docv:"K" ~docs:g_check
               ~doc:"Tabling mutation smoke test: silently truncate every \
                     tabled answer set to its first K answers.  All engines \
                     share the broken table and still agree with each \
                     other; --check must catch it on the tabled rows \
                     against the independent bottom-up reference (exit 1).")
      $ Arg.(value & opt (some int) None & info [ "check-store-mutate" ]
               ~docv:"K" ~docs:g_check
               ~doc:"Fact-store mutation smoke test: every argument-index \
                     probe of a fact store drops one matching row \
                     (position K mod its rows).  The compiled rows read \
                     the stores, the interpreted reference their clause \
                     views; --check must then report a counterexample \
                     (exit 1).")
      $ source $ query $ engine $ agents
      $ Arg.(value & vflag true
               [ (true,
                  info [ "compile" ] ~docs:g_engine
                    ~doc:"Sequential engine: execute clauses as compiled \
                          instruction code through the switch-on-term \
                          dispatch tree (the default).  The and/or \
                          simulators always interpret and the par engine \
                          always runs compiled code.");
                 (false,
                  info [ "no-compile" ] ~docs:g_engine
                    ~doc:"Sequential engine: interpret clause templates \
                          instead of compiled code (the differential \
                          oracle's reference mode).  An error with any \
                          other engine.") ])
      $ flag ~docs:g_schemas [ "lpco" ]
          "Enable the last parallel call optimization."
      $ flag ~docs:g_schemas [ "lao" ]
          "Enable the last alternative optimization."
      $ flag ~docs:g_schemas [ "spo" ]
          "Enable the shallow parallelism optimization."
      $ flag ~docs:g_schemas [ "pdo" ]
          "Enable the processor determinacy optimization."
      $ flag ~docs:g_schemas [ "all-opts"; "O" ] "Enable all optimizations."
      $ flag ~docs:g_schemas [ "par-and" ]
          "Hardware engine (--engine par): execute strictly-independent \
           '&' conjunctions in parallel (parcall frames offered through \
           the work-stealing deques, cross-product join), alongside the \
           or-parallel work stealing.  Other engines ignore it."
      $ Arg.(value & opt int 0 & info [ "granularity" ] ~docv:"CELLS"
               ~docs:g_schemas
               ~doc:"Sequentialize parallel calls whose estimated work is \
                     below CELLS term cells (granularity control; 0 = off).")
      $ Arg.(value & opt int 1 & info [ "grain" ] ~docv:"N" ~docs:g_schemas
               ~doc:"Or-parallel granularity (par engine): publish a choice \
                     point only if it still has at least N untried \
                     alternatives; smaller nodes stay private (1 = publish \
                     anything).")
      $ limit
      $ Arg.(value & opt (some int) None & info [ "deadline" ] ~docv:"MS"
               ~docs:g_engine
               ~doc:"Cancel the query MS milliseconds after it starts.  The \
                     solutions completed before the abort are printed as \
                     usual and the exit status is 124 (as for timeout(1)), \
                     with a partial-solutions report on stdout.")
      $ Arg.(value & opt int 0 & info [ "table-max-answers" ] ~docv:"N"
               ~docs:g_engine
               ~doc:"Abort with an error if any tabled subgoal accumulates \
                     more than N answers (0 = unlimited) — a guard against \
                     accidentally huge tables.")
      $ flag ~docs:g_obs [ "stats" ] "Print execution statistics."
      $ flag ~docs:g_obs [ "verbose-stats" ]
          "Print execution statistics including zero-valued counters (so \
           \"this optimization never fired\" stays visible)."
      $ flag ~docs:g_engine [ "annotate" ]
          "Run the strict-independence annotator before execution (uses \
           mode/1 directives)."
      $ Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
               ~docs:g_obs
               ~doc:"Write a Chrome trace_event JSON of the run to FILE (one \
                     track per agent/domain; open in Perfetto or \
                     chrome://tracing).")
      $ Arg.(value & opt (some string) None & info [ "trace-jsonl" ]
               ~docv:"FILE" ~docs:g_obs
               ~doc:"Write the raw event stream to FILE as JSON Lines (one \
                     event object per line).")
      $ Arg.(value & opt int 65536 & info [ "trace-buf" ] ~docv:"N"
               ~docs:g_obs
               ~doc:"Per-agent trace ring capacity in events (rounded up to \
                     a power of two); the newest N events per agent are \
                     kept.")
      $ Arg.(value & opt (some string) None & info [ "stats-json" ]
               ~docv:"FILE" ~docs:g_obs
               ~doc:"Write execution statistics to FILE as JSON: merged \
                     totals plus per-agent shards, utilization and \
                     histograms.")
      $ flag ~docs:g_obs [ "utilization" ]
          "Print the per-agent utilization table (busy/idle fractions, \
           tasks, steals, copies)."
      $ flag ~docs:g_obs [ "profile" ]
          "Per-predicate profiling: print the ranked hotspot table (4-port \
           call/exit/redo/fail counters plus exclusive instruction, \
           clause-try, cycle and allocation costs)."
      $ Arg.(value & opt (some string) None & info [ "profile-json" ]
               ~docv:"FILE" ~docs:g_obs
               ~doc:"Write the per-predicate profile (counters, costs and \
                     call-graph edges) to FILE as JSON.")
      $ Arg.(value & opt (some string) None & info [ "profile-folded" ]
               ~docv:"FILE" ~docs:g_obs
               ~doc:"Write folded call stacks ('a;b;c COST' lines, exclusive \
                     cycles per calling context) to FILE, directly \
                     consumable by flamegraph.pl or speedscope."))

let () =
  check_argv ();
  exit (Cmd.eval' ~argv:(join_negative_values value_options Sys.argv) cmd)
