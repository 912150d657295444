(* Facade over the four engines, exposing one options record and one
   result type so that the harness, tests and examples can sweep engine
   × configuration uniformly. *)

module Term = Ace_term.Term
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Database = Ace_lang.Database

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

include Run

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
  (* build the clause indexes and precompile clause code once; runs then
     read the database without mutating it (required by the multi-domain
     engine) *)
  Database.freeze db;
  { pbase = db }

let prepare_string program =
  prepare (Ace_lang.Program.db (Ace_lang.Program.consult_string program))

let database p = p.pbase
let session p = Database.overlay p.pbase

(* A limit of 0 asks for no solutions: no engine runs. *)
let empty_result opts kind =
  let stats = Stats.create () in
  Kernel.finish opts ~t0:(Unix.gettimeofday ())
    ~cycles:(if kind = Par_or then None else Some 0)
    [] stats (Ace_obs.Metrics.of_stats stats)

let run ?(opts = default_opts) ?session kind config p goal =
  let config = Config.validate config in
  if config.Config.max_solutions = Some 0 then empty_result opts kind else
  let db = match session with Some s -> s | None -> p.pbase in
  (* idempotent on the shared base; for a session overlay this compiles
     only the session's own asserted clauses *)
  Database.freeze db;
  (* one answer table per run unless the caller shares one across runs;
     only the multi-domain engine needs the per-shard locks (an unlocked
     table builds its shards at the first tabled call) *)
  let table =
    match opts.table with
    | Some t -> t
    | None ->
      Ace_lang.Table.create
        ~locked:(kind = Par_or)
        ~max_answers:config.Config.table_max_answers ()
  in
  let solve =
    match kind with
    | Sequential -> Seq_engine.solve
    | And_parallel -> And_engine.solve
    | Or_parallel -> Or_engine.solve
    | Par_or -> Par_or_engine.solve
  in
  let vars = free_vars [] goal in
  let mark = Stats.alloc_mark () in
  match solve opts table config db goal with
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

let solve ?opts kind config db goal = run ?opts kind config (prepare db) goal

(* Convenience: consult a program and run a query in one call. *)
let solve_program ?opts kind config ~program ~query =
  let p = prepare_string program in
  let q = Ace_lang.Program.parse_query query in
  run ?opts kind config p q.Ace_lang.Program.goal
