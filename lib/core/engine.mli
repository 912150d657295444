(** Facade over the sequential, and-parallel and or-parallel engines. *)

type kind =
  | Sequential
  | And_parallel
  | Or_parallel
      (** MUSE-style or-parallelism on the deterministic simulator *)
  | Par_or
      (** MUSE-style or-parallelism on real OCaml 5 domains
          ({!Par_or_engine}); [config.agents] = number of domains *)

val kind_to_string : kind -> string

(** Inverse of {!kind_to_string}; the error reads
    [unknown engine "x" (seq|and|or|par)]. *)
val kind_of_string : string -> (kind, string) result

(** The [Config.compile] values that give [kind] distinct execution
    paths: [[false; true]] on [Sequential] (interpreted reference,
    compiled production path), one value on every other engine, which
    ignores the field — the simulators always interpret (the paper's
    cost model) and [Par_or] always runs compiled clause code. *)
val compile_modes : kind -> bool list

(** The most domains one [Par_or] run may ask for: a fixed budget well
    under OCaml 5.1's limit of 128 live domains, so a request cannot
    exhaust them. *)
val max_par_agents : int

(** [Error msg] when [kind] spawns domains ([Par_or]) and [agents] is
    outside [1 .. max_par_agents]; the simulators' agents are coroutines
    and stay uncapped.  Callers check before running, so a refused
    request spawns nothing. *)
val check_agents : kind -> int -> (unit, string) result

type result = {
  solutions : Ace_term.Term.t list;
  stats : Ace_machine.Stats.t;
  metrics : Ace_obs.Metrics.t;
      (** the per-agent shards behind [stats]; for [Par_or] also busy/idle
          times and copy/task/steal histograms *)
  cycles : int option;
      (** abstract cycles: total charge (sequential) or simulated makespan
          (simulated parallel engines); [None] on [Par_or], which runs on
          the wall clock only *)
  wall_ns : int;
      (** wall-clock nanoseconds of the engine run, measured by {!run}
          on every engine (excludes freezing and table set-up) *)
  cancelled : Cancel.reason option;
      (** [Some _] when the run's cancel token fired: [solutions] holds
          the solutions completed before the abort (each one was complete
          when recorded, so the partial set is sound) *)
}

(** {1 Prepared programs and sessions}

    The run lifecycle in two steps: {!prepare} does the expensive,
    shareable part once (consult, freeze, clause compilation); {!run} is
    the cheap per-query part.  A [prepared] value is immutable — many
    queries, including concurrent ones from different domains, can [run]
    against the same [prepared].  Per-client [assert]/[retract] go
    through a {!session} overlay, never the shared base. *)

type prepared

(** Freezes (and thereby compiles) the database.  The database must not
    be mutated afterwards except through {!session} overlays. *)
val prepare : Ace_lang.Database.t -> prepared

(** Consults [program] source and prepares it. *)
val prepare_string : string -> prepared

(** The underlying frozen database. *)
val database : prepared -> Ace_lang.Database.t

(** A fresh session overlay: assert/retract on it are private to the
    session and shadow the shared base (see
    {!Ace_lang.Database.overlay}). *)
val session : prepared -> Ace_lang.Database.t

(** [trace] (default {!Ace_obs.Trace.disabled}) collects per-agent event
    rings; export with {!Ace_obs.Trace.to_chrome_json} or
    {!Ace_obs.Trace.to_jsonl}.  Simulated engines stamp events with the
    virtual clock, [Par_or] with wall-clock nanoseconds.

    [chaos] (default {!Ace_sched.Chaos.disabled}) is deterministic fault
    injection for the correctness checker: seeded schedule jitter on the
    simulated engines, steal-failure / publish-delay / forced-preemption
    on [Par_or].  Faults only reorder or delay work — the solution
    multiset must not depend on the chaos seed.

    [prof] (default {!Ace_obs.Prof.disabled}) attaches the per-predicate
    profiler: 4-port counters, exclusive cost attribution and call-graph
    edges, sharded per agent/domain.  Profiling observes the run without
    perturbing it — solutions are unchanged.

    [table] (default: a fresh table sized by
    [config.table_max_answers], sharded with per-shard locks only for
    [Par_or]) is the shared SLG answer table for [:- table] predicates.
    Pass one explicitly to share answers across runs or to inspect
    entries and the completion log after the run.

    [cancel] (default {!Cancel.none}) aborts the run cooperatively —
    on request, on a wall-clock deadline or on a poll budget — and the
    result reports [cancelled = Some reason] with the solutions found so
    far.

    [session] runs the query against a session overlay (from {!session})
    instead of the shared base.

    The engines bind [goal]'s variables in place while they run; [run]
    unbinds them again on every exit (exhausted, solution limit,
    cancelled, raised), so the same parsed goal can be run again.
    [result.stats] counts the minor words the run allocated, exactly,
    and the words promoted meanwhile (summed over the worker domains on
    [Par_or]). *)
val run :
  ?output:Buffer.t ->
  ?trace:Ace_obs.Trace.t ->
  ?chaos:Ace_sched.Chaos.t ->
  ?prof:Ace_obs.Prof.t ->
  ?table:Ace_lang.Table.t ->
  ?cancel:Cancel.t ->
  ?session:Ace_lang.Database.t ->
  kind ->
  Ace_machine.Config.t ->
  prepared ->
  Ace_term.Term.t ->
  result

(** [prepare] + {!run} in one call — the one-shot convenience used by the
    harness and tests. *)
val solve :
  ?output:Buffer.t ->
  ?trace:Ace_obs.Trace.t ->
  ?chaos:Ace_sched.Chaos.t ->
  ?prof:Ace_obs.Prof.t ->
  ?table:Ace_lang.Table.t ->
  ?cancel:Cancel.t ->
  kind ->
  Ace_machine.Config.t ->
  Ace_lang.Database.t ->
  Ace_term.Term.t ->
  result

(** Consults [program] source and runs [query]. *)
val solve_program :
  ?output:Buffer.t ->
  ?trace:Ace_obs.Trace.t ->
  ?chaos:Ace_sched.Chaos.t ->
  ?prof:Ace_obs.Prof.t ->
  ?table:Ace_lang.Table.t ->
  ?cancel:Cancel.t ->
  kind ->
  Ace_machine.Config.t ->
  program:string ->
  query:string ->
  result

(** Solutions in the standard order of terms, for engine-to-engine multiset
    comparison. *)
val sorted_solutions : result -> Ace_term.Term.t list
