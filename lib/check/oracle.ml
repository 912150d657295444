(* Differential oracle: runs one generated case on all four engines under
   a matrix of optimization settings and seeded chaos schedules, and
   compares alpha-canonical solution multisets against the sequential
   reference.

   Comparison rules:
   - reference succeeds with multiset S  -> every run must produce S
     (solutions compared as sorted lists of canonical strings, so
     discovery order and variable ids are irrelevant);
   - reference raises                    -> every run must raise (the
     parallel engines may surface a *different* branch's error first, so
     only the fact of an error is compared here; exact error texts are
     covered by directed unit tests).

   Cases whose reference run exceeds the solution cap are skipped — with a
   solution limit the engines legitimately take different prefixes. *)

module Config = Ace_machine.Config
module Chaos = Ace_sched.Chaos
module Engine = Ace_core.Engine

type outcome = Solutions of string list | Error of string

type mutation = { m_engine : Engine.kind; m_drop : int }

type verdict =
  | Agree of int
  | Skip of string
  | Disagree of {
      d_label : string;
      d_expected : outcome;
      d_got : outcome;
      d_chaos : string;
    }

let solution_cap = 2000

let outcome_to_string = function
  | Solutions [] -> "no (0 solutions)"
  | Solutions ss -> Printf.sprintf "%d solutions" (List.length ss)
  | Error m -> Printf.sprintf "error: %s" m

let pp_outcome ppf o =
  match o with
  | Error m -> Format.fprintf ppf "error: %s" m
  | Solutions ss ->
    Format.fprintf ppf "%d solutions" (List.length ss);
    List.iter (fun s -> Format.fprintf ppf "@.  %s" s) ss

(* ------------------------------------------------------------------ *)

let run_engine ?chaos ?(profiled = false) kind config ~program ~query =
  (* a fresh enabled profile per run: profiling must observe without
     perturbing, so a profiled row's solutions are compared like any
     other's *)
  let prof =
    if profiled then Ace_obs.Prof.create () else Ace_obs.Prof.disabled
  in
  let chaos = Option.value chaos ~default:Ace_sched.Chaos.disabled in
  let opts = { Engine.default_opts with Engine.chaos; prof } in
  match Engine.solve_program ~opts kind config ~program ~query with
  | r -> Solutions (Canon.multiset r.Engine.solutions)
  | exception Ace_core.Errors.Engine_error m -> Error m
  | exception Ace_term.Arith.Error m -> Error ("arith: " ^ m)
  | exception Ace_lang.Program.Error m -> Error ("syntax: " ^ m)

(* A sample of cases also round-trips through an in-process server
   session (lib/serve): the program is prepared once, the query routed
   through [Session.query] over the session's overlay database.  This
   differentially checks the prepare/run facade, the overlay lookup
   path and the session locking against the same reference multiset as
   the direct engine rows. *)
let run_serve kind config ~program ~query =
  match
    let prepared = Engine.prepare_string program in
    let session = Ace_server.Session.create ~engine:kind ~config prepared in
    Ace_server.Session.query session query
  with
  | Ok a -> Solutions (Canon.multiset a.Ace_server.Session.terms)
  | Error m -> Error m
  | exception Ace_core.Errors.Engine_error m -> Error m
  | exception Ace_term.Arith.Error m -> Error ("arith: " ^ m)
  | exception Ace_lang.Program.Error m -> Error ("syntax: " ^ m)

let agrees ~reference outcome =
  match (reference, outcome) with
  | Solutions a, Solutions b -> a = b
  | Error _, Error _ -> true
  | _ -> false

(* The run matrix for one case.  [schedules] chaos seeds are derived from
   the case seed so a reported counterexample replays from (seed, spec)
   alone. *)
let matrix ?extra_chaos ~seed ~schedules () =
  let seq1 = Config.default in
  let all4 = Config.all_optimizations ~agents:4 () in
  let un4 = Config.unoptimized ~agents:4 () in
  let andor4 = { all4 with Config.par_and = true } in
  let chaos k = Some (Chaos.make ~seed:(seed + k) ()) in
  let fixed =
    [
      ("seq+jitter", Engine.Sequential, seq1, chaos 0);
      (* the reference interprets, so this row and every par row (the
         domains engine runs compiled code only) check the clause
         compiler + dispatch tree against the template interpreter on
         every case *)
      ("seq compiled", Engine.Sequential,
       { seq1 with Config.compile = true }, None);
      ("and@4", Engine.And_parallel, all4, None);
      ("and@4 unopt", Engine.And_parallel, un4, None);
      ("and@4 thresh", Engine.And_parallel,
       { all4 with Config.seq_threshold = 64 }, None);
      ("or@4", Engine.Or_parallel, all4, None);
      ("or@4 unopt", Engine.Or_parallel, un4, None);
      ("par@4", Engine.Par_or, all4, None);
      (* only the domains engine reads [grain] (its publisher) *)
      ("par@4 grain2", Engine.Par_or, { all4 with Config.grain = 2 }, None);
      ("par@4 and+or", Engine.Par_or, andor4, None);
      ("par@4 and+or thresh", Engine.Par_or,
       { andor4 with Config.seq_threshold = 64 }, None);
      ("par@4 and+or nospo", Engine.Par_or,
       (* SPO off forces the parcall-frame path even when nobody is
          hungry, so the frame machinery is exercised on every case *)
       { andor4 with Config.spo = false }, None);
    ]
  in
  (* one always-profiled row: profiling must never perturb solutions *)
  let profiled_row =
    [ ("par@4 and+or profiled", Engine.Par_or, andor4, None) ]
  in
  let sched =
    List.concat
      (List.init schedules (fun k ->
           [
             (Printf.sprintf "and@4 chaos#%d" k, Engine.And_parallel, all4,
              chaos (1 + k));
             (Printf.sprintf "or@4 chaos#%d" k, Engine.Or_parallel, all4,
              chaos (101 + k));
             (Printf.sprintf "par@4 chaos#%d" k, Engine.Par_or, all4,
              chaos (201 + k));
             (Printf.sprintf "par@4 and+or chaos#%d" k, Engine.Par_or,
              { andor4 with Config.spo = false }, chaos (301 + k));
           ]))
  in
  let extra =
    match extra_chaos with
    | None -> []
    | Some c ->
      [
        ("seq replay", Engine.Sequential, seq1, Some c);
        ("and@4 replay", Engine.And_parallel, all4, Some c);
        ("or@4 replay", Engine.Or_parallel, all4, Some c);
        ("par@4 replay", Engine.Par_or, all4, Some c);
      ]
  in
  (fixed @ sched @ extra, profiled_row)

(* The matrix for a *tabled* (Datalog) case: every engine in each of
   its execution modes, plus chaos schedules — all compared against the
   independent bottom-up evaluator ({!Naive}), not the sequential
   engine, so a bug in the shared SLG machinery cannot cancel out.  A
   tabled query is a single call whose answers the table deduplicates,
   so set-vs-multiset comparison is exact. *)
let tabled_matrix ?extra_chaos ~seed ~schedules () =
  let seq1 = Config.default in
  let all4 = Config.all_optimizations ~agents:4 () in
  let chaos k = Some (Chaos.make ~seed:(seed + k) ()) in
  let fixed =
    [
      ("seq tabled", Engine.Sequential, seq1, None);
      ("seq tabled compiled", Engine.Sequential,
       { seq1 with Config.compile = true }, None);
      ("and@4 tabled", Engine.And_parallel, all4, None);
      ("or@4 tabled", Engine.Or_parallel, all4, None);
      ("par@4 tabled", Engine.Par_or, all4, None);
    ]
  in
  let sched =
    List.concat
      (List.init schedules (fun k ->
           [
             (Printf.sprintf "and@4 tabled chaos#%d" k, Engine.And_parallel,
              all4, chaos (1 + k));
             (Printf.sprintf "or@4 tabled chaos#%d" k, Engine.Or_parallel,
              all4, chaos (101 + k));
             (Printf.sprintf "par@4 tabled chaos#%d" k, Engine.Par_or,
              all4, chaos (201 + k));
           ]))
  in
  let extra =
    match extra_chaos with
    | None -> []
    | Some ch ->
      [
        ("seq tabled replay", Engine.Sequential, seq1, Some ch);
        ("par@4 tabled replay", Engine.Par_or, all4, Some ch);
      ]
  in
  let profiled_row = [ ("par@4 tabled profiled", Engine.Par_or, all4, None) ] in
  (fixed @ sched @ extra, profiled_row)

let check ?(schedules = 2) ?mutation ?extra_chaos (case : Gen_prog.t) =
  let program = Gen_prog.program_text case in
  let query = Gen_prog.query_text case in
  let mutated_program kind =
    match mutation with
    | Some { m_engine; m_drop } when m_engine = kind
                                     && Gen_prog.clause_count case > 0 ->
      Gen_prog.program_text ~drop:(m_drop mod Gen_prog.clause_count case) case
    | _ -> program
  in
  let tabled = case.Gen_prog.tabled <> [] in
  (* tabled cases loop under plain SLD, so the reference is the
     independent bottom-up evaluator instead of the sequential engine *)
  let reference =
    if tabled then
      match Naive.run case with
      | Naive.Solutions ts -> Ok (Solutions (Canon.multiset ts))
      | Naive.Overflow -> Error "tabled reference overflowed"
      | Naive.Unsupported m -> Error ("tabled reference: " ^ m)
    else
      let cfg = { Config.default with Config.max_solutions = Some (solution_cap + 1) } in
      Ok (run_engine Engine.Sequential cfg
            ~program:(mutated_program Engine.Sequential) ~query)
  in
  match reference with
  | Error why -> Skip why
  | Ok (Solutions ss) when List.length ss > solution_cap ->
    Skip (Printf.sprintf "more than %d solutions" solution_cap)
  | Ok reference ->
    let plain, profiled =
      (if tabled then tabled_matrix else matrix)
        ?extra_chaos ~seed:case.Gen_prog.seed ~schedules ()
    in
    let runs =
      List.map (fun (l, k, c, ch) -> (l, k, c, ch, false)) plain
      @ List.map (fun (l, k, c, ch) -> (l, k, c, ch, true)) profiled
    in
    let serve_rows =
      (* every fourth case: cheap enough to ride along on each fuzz run,
         frequent enough that an overlay or facade regression is caught
         within a handful of cases *)
      if case.Gen_prog.seed land 3 <> 0 then []
      else
        [
          ("serve seq", Engine.Sequential,
           { Config.default with Config.compile = true });
          ("serve par@4", Engine.Par_or, Config.all_optimizations ~agents:4 ());
        ]
    in
    let rec go_serve n = function
      | [] -> Agree n
      | (label, kind, config) :: rest ->
        let got = run_serve kind config ~program ~query in
        if agrees ~reference got then go_serve (n + 1) rest
        else
          Disagree
            { d_label = label; d_expected = reference; d_got = got;
              d_chaos = "off" }
    in
    let rec go n = function
      | [] -> go_serve n serve_rows
      | (label, kind, config, chaos, profiled) :: rest -> (
        let got =
          run_engine ?chaos ~profiled kind config
            ~program:(mutated_program kind) ~query
        in
        if agrees ~reference got then go (n + 1) rest
        else
          Disagree
            {
              d_label = label;
              d_expected = reference;
              d_got = got;
              d_chaos =
                (match chaos with
                | Some c -> Chaos.to_spec c
                | None -> "off");
            })
    in
    go 1 runs

(* True when the case still FAILS the oracle — the shrinker's property. *)
let fails ?schedules ?mutation ?extra_chaos case =
  match check ?schedules ?mutation ?extra_chaos case with
  | Disagree _ -> true
  | Agree _ | Skip _ -> false
