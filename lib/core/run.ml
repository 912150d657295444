(* The boundary every engine shares: the options of one run and what it
   returns, defined once here, built into each agent by {!Kernel.agent}
   and re-exported by {!Engine}. *)

(** The options of one run; start from {!default_opts}, e.g.
    [{ Engine.default_opts with Engine.cancel = token }]. *)
type opts = {
  output : Buffer.t option;
      (** where [write/1] and [nl/0] print ([None]: nowhere) *)
  trace : Ace_obs.Trace.t;
      (** per-agent event rings; export with
          {!Ace_obs.Trace.to_chrome_json} or {!Ace_obs.Trace.to_jsonl}.
          Simulated engines stamp events with the virtual clock, [Par_or]
          with wall-clock nanoseconds. *)
  chaos : Ace_sched.Chaos.t;
      (** deterministic fault injection for the correctness checker:
          seeded schedule jitter on the simulated engines,
          steal-failure / publish-delay / forced-preemption on [Par_or].
          Faults only reorder or delay work — the solution multiset must
          not depend on the chaos seed. *)
  prof : Ace_obs.Prof.t;
      (** the per-predicate profiler: 4-port counters, exclusive cost
          attribution and call-graph edges, sharded per agent/domain.
          Profiling observes the run without perturbing it. *)
  table : Ace_lang.Table.t option;
      (** the shared SLG answer table for [:- table] predicates; [None]:
          a fresh one per run, sized by [config.table_max_answers] and
          sharded with per-shard locks only for [Par_or].  Pass one to
          share answers across runs or to inspect entries and the
          completion log afterwards.  {!Engine.run} resolves it; the
          engines take the resolved table as an argument. *)
  cancel : Cancel.t;
      (** aborts the run cooperatively — on request, on a wall-clock
          deadline or on a poll budget — and the result reports
          [cancelled = Some reason] with the solutions found so far *)
}

(** Output nowhere; tracing, chaos and profiling off; a fresh table per
    run; {!Cancel.none}. *)
let default_opts =
  {
    output = None;
    trace = Ace_obs.Trace.disabled;
    chaos = Ace_sched.Chaos.disabled;
    prof = Ace_obs.Prof.disabled;
    table = None;
    cancel = Cancel.none;
  }

(** What every engine returns. *)
type result = {
  solutions : Ace_term.Term.t list;
      (** snapshots of the instantiated goal, in discovery order *)
  stats : Ace_machine.Stats.t;
  metrics : Ace_obs.Metrics.t;
      (** the per-agent shards behind [stats]; for [Par_or] also busy/idle
          times and copy/task/steal histograms *)
  cycles : int option;
      (** abstract cycles: total charge (sequential) or simulated makespan
          (simulated parallel engines); [None] on [Par_or], which runs on
          the wall clock only *)
  wall_ns : int;
      (** wall-clock nanoseconds of the engine run, on every engine
          (excludes freezing and table set-up) *)
  cancelled : Cancel.reason option;
      (** [Some _] when the run's cancel token fired: [solutions] holds
          the solutions completed before the abort (each one was complete
          when recorded, so the partial set is sound) *)
}

(** Every engine's entry point: runs a goal against a frozen database to
    exhaustion or [config.max_solutions], with the given table as the
    answer table ([opts.table] is not read). *)
type solver =
  opts ->
  Ace_lang.Table.t ->
  Ace_machine.Config.t ->
  Ace_lang.Database.t ->
  Ace_term.Term.t ->
  result
