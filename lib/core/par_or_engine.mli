(** Hardware and+or parallel engine: MUSE-style environment-copying
    workers on OCaml 5 domains, with demand-driven publishing into
    work-stealing deques and the paper's LAO / sequentialization schema
    applied structurally (the last alternative of an owned node continues
    in place with no re-dispatch or copy).

    [config.agents] is the number of domains.  Clauses always run as
    compiled instruction code through the deep-indexing dispatch tree
    (the production path); [config.compile] is not read.  Finds all
    solutions (or [config.max_solutions]).  Cut and other control
    constructs are rejected, and calling an undefined predicate raises
    {!Errors.Engine_error} (worker exceptions are re-raised in the
    calling domain).

    Parallel conjunctions run sequentially unless [config.par_and] is
    set, in which case strictly-independent ['&'] branches execute as
    parcall-frame slots offered through the same work-stealing deques:
    each slot enumerates its solutions on a private sub-machine, a slot
    with none fails the frame and kills its siblings (inside failure),
    and the cross product of the recorded free-variable tuples is
    replayed through an ordinary — and therefore or-publishable — choice
    point.  The frame setup is guarded by the paper's schemas:
    sequentialization below [config.seq_threshold], LPCO flattening of
    nested parcalls, SPO skipping the frame when no worker is hungry,
    and PDO steering the owner to the sequentially-next free slot.
    Branches sharing an unbound variable fall back to sequential
    execution (runtime strict-independence check).

    With one domain and [par_and] off the engine is a plain sequential
    backtracker and reproduces the sequential solution order; otherwise
    solutions arrive in nondeterministic discovery order — compare
    solution {e multisets} against {!Seq_engine}. *)

type result = {
  solutions : Ace_term.Term.t list;
      (** discovery order; nondeterministic for more than one domain *)
  stats : Ace_machine.Stats.t;
      (** merged over all workers; wall-clock runs have real (not
          simulated) counter values *)
  metrics : Ace_obs.Metrics.t;
      (** the per-domain shards behind [stats]: copy-size / task-duration /
          steal-retry histograms and busy/idle nanoseconds per domain *)
}

(** [trace] (default {!Ace_obs.Trace.disabled}) collects per-domain event
    rings: task spawn/start/finish, steal, publish/skip, copy, LAO hits,
    and-parallel schema hits (LPCO / SPO / PDO), solutions, idle spans.

    [chaos] (default {!Ace_sched.Chaos.disabled}) injects deterministic,
    seed-replayable faults at the engine's yield sites: steal failures,
    delayed publishes, and forced preemption around publish, steal and the
    solution channel.  Injection reorders and delays work but never drops
    it, so the solution multiset must not change — the invariant the
    differential checker ({!Ace_check}) exercises.

    [cancel] (default {!Cancel.none}) is polled by every domain at its
    stop-flag chokepoints; once fired it is folded into the shared stop
    flag, all domains wind down and join, and the solutions recorded so
    far are returned. *)
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
