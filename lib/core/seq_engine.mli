(** Sequential Prolog engine — the paper's "state-of-the-art sequential
    system" baseline.  Parallel conjunctions ('&'), static or built at
    run time, run as ordinary conjunctions.  Supports cut,
    negation-as-failure, if-then-else and disjunction; charges abstract
    cycles from the shared cost model so the parallel engines' overhead
    can be measured against it.

    An explicit machine over {!Kernel.step}: the engine keeps only its
    continuation stack, its choice-point stack (shallow backtracking: a
    choice point is pushed only after a candidate's head matched) and
    the control constructs.  [config.compile] selects compiled clause
    code (identical solutions, fewer cycles) or the interpreter.  The
    same machine runs every engine's tabled generators
    ({!Kernel.generator}), over the calling agent.

    [opts.trace] records solution events on track 0 and [opts.prof]
    attributes per-predicate costs, both stamped with the abstract-cycle
    clock.  [opts.chaos] charges seeded extra cycles at yield sites; with
    no concurrency the answers must not depend on it.  [opts.cancel] is
    checked at the call and backtrack chokepoints; once fired the run ends
    with the solutions found so far — each was complete when copied, so
    partial results stay valid. *)

(** Runs [goal] against [db] to exhaustion or [config.max_solutions],
    with [table] as the answer table ([opts.table] is not read); [cycles]
    is the abstract-cycle total (the sequential execution time). *)
val solve : Run.solver
