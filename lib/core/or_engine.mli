(** The or-parallel engine (MUSE-style stack-copying workers) with the Last
    Alternative Optimization of the paper's §3.2.

    Finds all solutions (or [config.max_solutions]) by exploring the or-tree
    with [config.agents] simulated workers.  Parallel conjunctions run
    sequentially; cut and the other control constructs but [,], ['&'] and
    [call/1] raise the kernel's "not supported" error.

    Each simulated worker resolves calls through {!Kernel.step}; the
    engine keeps only its private choice-point stacks, the shared
    alternative lists, LAO and the copying scheduler.  Clauses are always
    interpreted (the paper's cost model); [config.compile] is not read. *)

(** Runs the search with [table] as the answer table ([opts.table] is not
    read); [cycles] is the simulated completion time.  Solutions come in
    discovery order: deterministic, but interleaved for P > 1 — compare
    them as multisets against the sequential engine.  [metrics] holds one
    single-writer shard per simulated worker.

    [opts.trace] collects per-agent event rings (steal, copy, LAO hit,
    solution, idle spans) stamped with the simulator's virtual clock.
    [opts.chaos] charges seeded extra virtual cycles at yield sites and
    skips steal victims; because the simulator is deterministic, each
    chaos seed selects one exact alternative interleaving.  The solution
    multiset must be invariant across seeds.  [opts.cancel] is polled at
    every worker's call and backtrack chokepoints; once fired the run
    stops through the same path as a solution limit. *)
val solve : Run.solver
