(** The or-parallel engine (MUSE-style stack-copying workers) with the Last
    Alternative Optimization of the paper's §3.2.

    Finds all solutions (or [config.max_solutions]) by exploring the or-tree
    with [config.agents] simulated workers.  Parallel conjunctions run
    sequentially; cut and other control constructs are rejected.

    Clauses are always interpreted (the paper's cost model);
    [config.compile] is not read. *)

type t

type result = {
  solutions : Ace_term.Term.t list;
      (** discovery order; deterministic but interleaved for P > 1 —
          compare as multisets against the sequential engine *)
  stats : Ace_machine.Stats.t;  (** merged over all simulated workers *)
  per_agent : Ace_machine.Stats.t array;
      (** one single-writer shard per simulated worker; [stats] is their
          merge *)
  time : int;
}

(** [trace] (default {!Ace_obs.Trace.disabled}) collects per-agent event
    rings (steal, copy, LAO hit, solution, idle spans) stamped with the
    simulator's virtual clock.

    [chaos] (default {!Ace_sched.Chaos.disabled}) charges seeded extra
    virtual cycles at yield sites and skips steal victims; because the
    simulator is deterministic, each chaos seed selects one exact
    alternative interleaving — deterministic schedule exploration.  The
    solution multiset must be invariant across seeds.

    [cancel] (default {!Cancel.none}) is polled at every worker's call
    and backtrack chokepoints; once fired the run stops through the same
    path as a solution limit, returning the solutions recorded so far. *)
val create :
  ?output:Buffer.t ->
  ?trace:Ace_obs.Trace.t ->
  ?chaos:Ace_sched.Chaos.t ->
  ?prof:Ace_obs.Prof.t ->
  ?table:Ace_lang.Table.t ->
  ?cancel:Cancel.t ->
  Ace_machine.Config.t ->
  Ace_lang.Database.t ->
  Ace_term.Term.t ->
  t

val run : t -> result

val solve :
  ?output:Buffer.t ->
  ?trace:Ace_obs.Trace.t ->
  ?chaos:Ace_sched.Chaos.t ->
  ?prof:Ace_obs.Prof.t ->
  ?table:Ace_lang.Table.t ->
  ?cancel:Cancel.t ->
  Ace_machine.Config.t ->
  Ace_lang.Database.t ->
  Ace_term.Term.t ->
  result
