(** The and-parallel engine (&ACE): parcall frames, input/end markers, work
    stealing over simulated agents, inside/outside backtracking with
    recomputation, and the LPCO, SPO and PDO optimizations of the paper
    (switched from {!Ace_machine.Config}).

    Subgoals of a parallel conjunction must be strictly independent (share
    no unbound variables at call time) — the standard &ACE condition.  Cut
    and control constructs other than [,], ['&'] and [call/1] raise the
    kernel's "not supported" error.

    Each simulated agent resolves calls through {!Kernel.step}; the engine
    keeps only its executions (private trails and backtrack stacks),
    frames, markers and scheduling.  Clauses are always interpreted (the
    paper's cost model); [config.compile] is not read. *)

(** Runs the query to exhaustion (or [config.max_solutions]) on
    [config.agents] simulated agents, with [table] as the answer table
    ([opts.table] is not read); [cycles] is the simulated completion
    time.  Solutions come in discovery order; [metrics] holds one
    single-writer shard per agent.

    [opts.trace] collects per-agent event rings (slot start/finish,
    steal, LPCO/SPO/PDO hits, solutions) stamped with the simulator's
    virtual clock.  [opts.chaos] charges seeded extra virtual cycles at
    choice-point and steal yield sites and skips frames during steal
    scans — deterministic schedule exploration; the solution multiset
    must be invariant across seeds.  [opts.cancel] is polled at the
    exec, call, backtrack and steal chokepoints; once fired the
    simulation stops like a satisfied solution limit. *)
val solve : Run.solver
