(* Facade over the three engines, exposing one result type so that the
   harness, tests and examples can sweep engine × configuration
   uniformly. *)

module Term = Ace_term.Term
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Database = Ace_lang.Database
module Metrics = Ace_obs.Metrics

type kind =
  | Sequential   (* baseline; '&' runs as ',' *)
  | And_parallel (* &ACE: LPCO / SPO / PDO *)
  | Or_parallel  (* MUSE-style: LAO, on the deterministic simulator *)
  | Par_or       (* MUSE-style on real OCaml domains (wall clock) *)

let kind_to_string = function
  | Sequential -> "seq"
  | And_parallel -> "and"
  | Or_parallel -> "or"
  | Par_or -> "par"

let kind_of_string = function
  | "seq" -> Ok Sequential
  | "and" -> Ok And_parallel
  | "or" -> Ok Or_parallel
  | "par" -> Ok Par_or
  | s -> Error (Printf.sprintf "unknown engine %S (seq|and|or|par)" s)

let compile_modes = function
  | Sequential -> [ false; true ]
  | And_parallel | Or_parallel | Par_or -> [ false ]

let max_par_agents = 16

let check_agents kind agents =
  match kind with
  | Par_or when agents < 1 || agents > max_par_agents ->
    Error
      (Printf.sprintf "par engine: agents must be between 1 and %d (got %d)"
         max_par_agents agents)
  | Sequential | And_parallel | Or_parallel | Par_or -> Ok ()

type result = {
  solutions : Term.t list;
  stats : Stats.t;
  metrics : Metrics.t;
    (* per-agent shards behind [stats]; the multicore engine also fills
       the busy/idle and histogram fields *)
  cycles : int option;
    (* abstract cycles: charged total (seq) or simulated makespan; [None]
       on [Par_or], which charges none *)
  wall_ns : int; (* measured around the engine by [run] *)
  cancelled : Cancel.reason option;
    (* [Some _]: the run was aborted and [solutions] is the partial set
       completed before the token fired *)
}

(* The goal's variables that are unbound at entry, with repeats.  The
   engines bind the caller's goal term in place; [run] unbinds these on
   every exit so that the same parsed goal can be run again. *)
let rec free_vars acc t =
  match t with
  | Term.Var { binding = Some t; _ } -> free_vars acc t
  | Term.Var v -> v :: acc
  | Term.Atom _ | Term.Int _ -> acc
  | Term.Struct (_, args) ->
    let acc = ref acc in
    for i = 0 to Array.length args - 1 do
      acc := free_vars !acc args.(i)
    done;
    !acc

let unbind vars = List.iter (fun (v : Term.var) -> v.Term.binding <- None) vars

(* The shared, immutable artifact of the run lifecycle split: consulting,
   freezing and clause compilation happen once in [prepare]; [run] is the
   cheap per-query step, safe to issue concurrently against one
   [prepared] (sessions overlay it, they never mutate it). *)
type prepared = { pbase : Database.t }

let prepare db =
  (* warm the lookup caches and precompile clause code once; runs then
     read the database without mutating it (required by the multi-domain
     engine) *)
  Database.freeze db;
  { pbase = db }

let prepare_string program =
  prepare (Ace_lang.Program.db (Ace_lang.Program.consult_string program))

let database p = p.pbase
let session p = Database.overlay p.pbase

(* The facade's result of an engine run started at [t0]. *)
let result ~t0 ~cancel solutions stats metrics cycles =
  {
    solutions;
    stats;
    metrics;
    cycles;
    wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
    cancelled = Cancel.fired cancel;
  }

(* One run of [kind] on [db]; [run] adds the facade's bookkeeping.  Only
   the sequential branch reads [config.compile]: every other engine has
   one execution path. *)
let run_on ?output ?trace ?chaos ?prof ~table ~cancel ~t0 kind
    (config : Config.t) db goal =
  match kind with
  | Sequential ->
    let m =
      Seq_engine.create ?output ?trace ?chaos ?prof ~cost:config.Config.cost
        ~compile:config.Config.compile ~table ~cancel db goal
    in
    let solutions =
      Seq_engine.all_solutions ?limit:config.Config.max_solutions m
    in
    let stats = Seq_engine.stats m in
    result ~t0 ~cancel solutions stats (Metrics.of_stats stats)
      (Some (Seq_engine.time m))
  | And_parallel ->
    let r =
      And_engine.solve ?output ?trace ?chaos ?prof ~table ~cancel config db goal
    in
    result ~t0 ~cancel r.And_engine.solutions r.And_engine.stats
      (Metrics.of_stats_array r.And_engine.per_agent)
      (Some r.And_engine.time)
  | Or_parallel ->
    let r =
      Or_engine.solve ?output ?trace ?chaos ?prof ~table ~cancel config db goal
    in
    result ~t0 ~cancel r.Or_engine.solutions r.Or_engine.stats
      (Metrics.of_stats_array r.Or_engine.per_agent)
      (Some r.Or_engine.time)
  | Par_or ->
    let r =
      Par_or_engine.solve ?output ?trace ?chaos ?prof ~table ~cancel config db
        goal
    in
    result ~t0 ~cancel r.Par_or_engine.solutions r.Par_or_engine.stats
      r.Par_or_engine.metrics None

let run ?output ?trace ?chaos ?prof ?table ?(cancel = Cancel.none) ?session
    kind (config : Config.t) p goal =
  let db = match session with Some s -> s | None -> p.pbase in
  (* idempotent on the shared base; for a session overlay this re-caches
     and re-compiles only the session's own asserted clauses *)
  Database.freeze db;
  (* one answer table per run unless the caller shares one across runs;
     only the multi-domain engine needs the per-shard locks (an unlocked
     table builds its shards at the first tabled call) *)
  let table =
    match table with
    | Some t -> t
    | None ->
      Ace_lang.Table.create
        ~locked:(kind = Par_or)
        ~max_answers:config.Config.table_max_answers ()
  in
  let vars = free_vars [] goal in
  let t0 = Unix.gettimeofday () in
  let mark = Stats.alloc_mark () in
  match
    run_on ?output ?trace ?chaos ?prof ~table ~cancel ~t0 kind config db goal
  with
  | r ->
    (* the calling domain's allocation during the run; [Par_or] counts
       each worker domain's share itself (see
       [Par_or_engine.worker_main]) *)
    if kind <> Par_or then Stats.add_alloc_since r.stats mark;
    unbind vars;
    r
  | exception e ->
    unbind vars;
    raise e

let solve ?output ?trace ?chaos ?prof ?table ?cancel kind config db goal =
  run ?output ?trace ?chaos ?prof ?table ?cancel kind config (prepare db) goal

(* Convenience: consult a program and run a query in one call. *)
let solve_program ?output ?trace ?chaos ?prof ?table ?cancel kind config
    ~program ~query =
  let p = prepare_string program in
  let q = Ace_lang.Program.parse_query query in
  run ?output ?trace ?chaos ?prof ?table ?cancel kind config p
    q.Ace_lang.Program.goal

(* Solutions as a sorted list (for multiset comparison between engines,
   since or-parallel discovery order is interleaved). *)
let sorted_solutions result = List.sort Term.compare result.solutions
