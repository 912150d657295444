(** Hardware and+or parallel engine: MUSE-style environment-copying
    workers on OCaml 5 domains, with demand-driven publishing into
    work-stealing deques and the paper's LAO / sequentialization schema
    applied structurally (the last alternative of an owned node continues
    in place with no re-dispatch or copy).

    [config.agents] is the number of domains.  Clauses always run as
    compiled instruction code through the deep-indexing dispatch tree
    (the production path); [config.compile] is not read.  Finds all
    solutions (or [config.max_solutions]).  Cut and other control
    constructs but [,], ['&'] and [call/1] raise the kernel's "not
    supported" error, and calling an undefined predicate raises
    {!Errors.Engine_error} (worker exceptions are re-raised in the
    calling domain).

    Each worker resolves calls through {!Kernel.step}; the engine keeps
    only its private machines, publication, the deques and the parcall
    frames.  Parallel conjunctions run sequentially unless
    [config.par_and] is set, in which case strictly-independent ['&']
    branches execute as parcall-frame slots offered through the same
    work-stealing deques: each slot enumerates its solutions on a private
    sub-machine, a slot with none fails the frame and kills its siblings
    (inside failure), and the cross product of the recorded
    free-variable tuples is replayed through an ordinary — and therefore
    or-publishable — choice point.  The frame setup is guarded by the
    paper's schemas: sequentialization below [config.seq_threshold], LPCO
    flattening of nested parcalls, SPO skipping the frame when no worker
    is hungry, and PDO steering the owner to the sequentially-next free
    slot.  Branches sharing an unbound variable fall back to sequential
    execution (runtime strict-independence check).

    With one domain and [par_and] off the engine is a plain sequential
    backtracker and reproduces the sequential solution order; otherwise
    solutions arrive in nondeterministic discovery order — compare
    solution {e multisets} against {!Seq_engine}. *)

(** Runs the search on [config.agents] domains with [table] (which must be
    created [~locked:true]) as the answer table; [opts.table] is not
    read.  [cycles] is [None]: counters are real, not simulated, and
    [metrics] holds the per-domain shards with copy-size / task-duration
    / steal-retry histograms and busy/idle nanoseconds.

    [opts.trace] collects per-domain event rings: task spawn/start/finish,
    steal, publish/skip, copy, LAO hits, and-parallel schema hits
    (LPCO / SPO / PDO), solutions, idle spans.  [opts.chaos] injects
    deterministic, seed-replayable faults at the engine's yield sites:
    steal failures, delayed publishes, and forced preemption around
    publish, steal and the solution channel.  Injection reorders and
    delays work but never drops it, so the solution multiset must not
    change.  [opts.cancel] is polled by every domain at its stop-flag and
    call chokepoints; once fired it is folded into the shared stop flag,
    all domains wind down and join, and the solutions recorded so far
    are returned. *)
val solve : Run.solver

(** The spawn that {!solve} starts its worker domains with
    ([Domain.spawn]).  A test seam, not a run option: tests replace it
    to make a spawn fail.  When one does, {!solve} stops and joins the
    domains it had already started, then re-raises the failure. *)
val spawn : ((unit -> unit) -> unit Domain.t) ref
