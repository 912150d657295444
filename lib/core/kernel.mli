(** The shared solver kernel.

    All four engines (sequential, simulated and-parallel, simulated
    or-parallel, multicore or+and) call goals through one {!step}: it
    dispatches builtins through {!Builtins}, checks the cancel token,
    routes tabled calls through the shared answer table, looks clauses up
    in the frozen database and tries a lone candidate (a renamed head
    unified, or compiled code run, the trail undone on failure) — while
    charging the {!Ace_machine.Cost} table and updating a
    {!Ace_machine.Stats} shard.  This module owns that common machinery
    as plain functions over one concrete {!agent} record, which each
    engine builds per execution context, so each engine keeps only its
    scheduling and choice-point policy (stacks, stealing, frames,
    publication, control constructs).  A record rather than a functor
    over the engine: OCaml without flambda calls every functor-argument
    operation indirectly and never inlines it.

    The paper's optimization schemas (LPCO, LAO, SPO, PDO and the
    sequentialization/granularity schema) are exposed as pure,
    engine-agnostic decision functions in {!Schema}: an engine asks
    "should this fire here?" and implements only the mechanical
    consequence. *)

module Term = Ace_term.Term
module Trail = Ace_term.Trail
module Clause = Ace_lang.Clause
module Database = Ace_lang.Database
module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config

(** [finish opts ~t0 ~cycles solutions stats metrics] is the result of a
    run started at [t0] ([Unix.gettimeofday]): [wall_ns] is measured now
    and [cancelled] read off [opts.cancel]. *)
val finish :
  Run.opts -> t0:float -> cycles:int option -> Term.t list -> Stats.t ->
  Ace_obs.Metrics.t -> Run.result

(** How an agent pays the charges the kernel makes. *)
type clock =
  | Cycles  (** added up in [cycles] (the sequential engine) *)
  | Wall  (** dropped: the multicore engine is timed by the wall clock *)
  | Ticks of Ace_sched.Sim.t
      (** each charge advances the simulated agent running it *)

(** The sequential machine's continuation segment (body items and the
    choice-point height a cut among them restores), held by a saved
    tabled consumer. *)
type seg = { items : Clause.body; barrier : int }

(** A tabled evaluation in progress: generator stack, regions, saved
    consumers. *)
type evaluation

(** One execution context: the sequential machine, one multicore worker
    domain, or one simulated agent.  [stats], [sc], [prof], [tbuf],
    [goal] and [alts] are private to the context (single writer); [db]
    and [table] are the run's, shared by all its agents. *)
type agent = {
  name : string;
      (** the engine, in "control construct ... not supported inside
          <name>" errors, e.g. ["the or-parallel engine"] *)
  cost : Cost.t;
  stats : Stats.t;  (** the shard this context's work is counted in *)
  sc : Ace_lang.Code.scratch;
      (** frame buffer and argument registers for compiled clause code *)
  mutable prof : Ace_obs.Prof.shard;
      (** {!Ace_obs.Prof.null} when profiling is off (every hook is then
          a load and a branch) *)
  cancel : Cancel.t;
      (** checked at the call chokepoint of {!step} and {!step_regs}
          (on a generator's machine too): a fired token raises
          {!Cancel.Cancelled} out to the engine's handler, leaving a
          table under evaluation incomplete but consistent (monotone
          partial answers; the next caller re-evaluates) *)
  clock : clock;
  mutable cycles : int;  (** abstract cycles charged so far ([Cycles]) *)
  tbuf : Ace_obs.Trace.buffer;
  db : Database.t;
  table : Ace_lang.Table.t;  (** the run's SLG answer table *)
  compiled : bool;
      (** run clauses as compiled code through the deep-indexing
          dispatch tree; interpreted with first-argument indexing
          otherwise *)
  mutable goal : Term.t;  (** after {!R_alts}: the call to answer *)
  mutable alts : Clause.t list;
      (** after {!R_alts}: its candidate clauses (at least two), none
          tried yet *)
  mutable callee : Ace_term.Symbol.t;
      (** after {!R_exec} or {!Ex_exec}: the last call's predicate, its
          arguments in the registers *)
  mutable callee_arity : int;  (** and its arity *)
  mutable tabling : evaluation option;
      (** the evaluation this agent is running (the kernel's own) *)
}

(** A fresh agent with its own scratch and [cycles] 0, its trace buffer
    for track [dom] of [opts.trace], and, when [opts.prof] is on, a
    profiler shard for [dom] stamped by [clock]. *)
val agent :
  Run.opts -> name:string -> clock:clock -> cost:Cost.t -> stats:Stats.t ->
  db:Database.t -> table:Ace_lang.Table.t -> compiled:bool -> dom:int ->
  agent

(** Records a trace event into the agent's buffer, stamped by its clock
    (its cycles, the simulator's virtual time, or the wall clock). *)
val record : agent -> Ace_obs.Trace.kind -> int -> unit

(** Pays a charge on the agent's clock. *)
val charge : agent -> int -> unit

(** Goal classification for the control constructs {!step} leaves to the
    engine.  Constructors carry the decomposed subterms; [Goal] carries
    the dereferenced term. *)
type cls =
  | Cut
  | Conj of Term.t  (** a [','/2] goal, to be recompiled into the body *)
  | Amp of Term.t  (** a ['&'/2] goal (parallel conjunction) *)
  | Disj of Term.t * Term.t
  | Ite of Term.t * Term.t * Term.t  (** condition, then, else *)
  | Naf of Term.t
  | Meta of Term.t  (** [call/1] *)
  | Sentinel of Term.t  (** the ['$solution'/1] report-and-fail sentinel *)
  | Goal of Term.t

val classify : Term.t -> cls

(** Builds the report-and-fail continuation for a whole-search engine:
    the compiled query followed by the ['$solution'] sentinel. *)
val sentinel_body : Term.t -> Clause.body

(** A read of a table's answers on a generator's machine. *)
type reader

(** What calling a goal comes to, decided once for every engine.

    - [R_fail]: a builtin failed, no clause matched the index, or the
      lone candidate's head did not match (its bindings undone).
    - [R_body body]: a builtin succeeded ([body = []]) or the lone
      candidate matched; run [body] (instantiated, or one
      [Clause.Exec] item) before the caller's continuation.
    - [R_exec]: the lone candidate ran to its last call on the scratch
      frame; the callee is in [agent.callee]/[agent.callee_arity], its
      arguments in the agent's registers ([agent.sc]), and nothing was
      stacked — step it with {!step_callee}, so a determinate recursion
      loops in constant space, allocating nothing.
    - [R_alts]: several candidates, none tried, in [agent.goal] and
      [agent.alts], for the engine's own choice point.
    - [R_control]: a control construct ({!classify} it).
    - [R_answers], [R_consume]: on a generator's machine only (see
      {!generator}), a tabled call reading a complete table or
      consuming one this evaluation is producing (see {!save}). *)
type resolved =
  | R_fail
  | R_body of Clause.body
  | R_exec
  | R_alts
  | R_control
  | R_answers of reader
  | R_consume of reader

val step : agent -> Builtins.ctx -> Term.t -> resolved
(** One call: builtin dispatch (charged, profiled), then the call
    chokepoint's {!Cancel.check}, tabled routing through the shared
    answer table, clause selection (raising the existence error for an
    unknown procedure) and the try of a lone candidate.  Bindings go on
    [ctx]'s trail. *)

val step_regs : agent -> Builtins.ctx -> Ace_term.Symbol.t -> int -> resolved
(** {!step} for a call whose arguments are loaded in the registers (after
    [Ex_call]; compiled agents only): clause selection walks the
    dispatch tree straight from the register file, allocating nothing,
    and only a tabled call or several candidates materialize a goal
    term. *)

val step_callee : agent -> Builtins.ctx -> resolved
(** {!step_regs} of the agent's [callee], after [R_exec] or
    [Ex_exec]. *)

(** Set by the sequential engine when it initializes: [!generator a ctx
    start cont answer] runs [start] (a pass's first step, or [R_answers]
    resuming a saved consumer) then [cont] to exhaustion on a fresh
    machine over [a] and [ctx]'s private trail, calling [answer] at each
    solution. *)
val generator :
  (agent -> Builtins.ctx -> resolved -> seg list -> (unit -> unit) -> unit)
  ref

val next_answer : agent -> trail:Trail.t -> reader -> bool
(** Unifies the reader's call with its next answer, read by index up to
    the table's live count; [false] once none is left. *)

val save : agent -> reader -> seg list -> unit
(** Saves a consumer's reader with a continuation that no [!] can cut
    and that ends its activation's: it is resumed on the table's new
    answers.  An unsaved consumer is a fallback read. *)

val try_clause : agent -> Builtins.ctx -> Term.t -> Clause.t -> resolved
(** One candidate of a choice point against the goal, in the agent's
    mode, answering [R_fail], [R_body] or [R_exec].  Interpreted: a
    renamed head unified against the goal; the body comes back
    instantiated.  Compiled: the clause's flat instruction code
    ({!Ace_lang.Code}) runs against the goal's arguments, charged per
    executed instruction ([Cost.code_instr]) plus embedded unification
    steps; a scratch-eligible body (builtins + final execute) runs to its
    last call inline ([R_exec] or [R_body []]), any other body escapes as
    one [Clause.Exec] item over a heap environment (counted in
    [Stats.env_allocs]).  Either way a failed try undoes its bindings
    (charged). *)

(** Where {!exec_body} stopped — the next thing the engine must
    schedule.  [Ex_call]/[Ex_exec] have the callee's arguments loaded in
    the scratch registers; [Ex_call] also carries the pc to resume the
    frame at and the number of frame slots still live there (see
    {!trim_env}), and [Ex_exec] leaves its callee in the agent, as
    [R_exec] does. *)
type executed =
  | Ex_fail
  | Ex_done
  | Ex_call of Ace_term.Symbol.t * int * int * int
  | Ex_exec
  | Ex_goal of Term.t * int
  | Ex_par of Clause.body list * int

(** [exec_cont xf pc rest] is the continuation that resumes [xf] at
    [pc] — just [rest] when the body is exhausted, so no empty frames
    are ever stacked (the last-call generalization). *)
val exec_cont : Clause.exec_frame -> int -> Clause.body -> Clause.body

(** [trim_env xf live] clears the dead slot suffix of the frame so the
    terms it holds become collectable.  The clears are not trailed:
    callers must prove the frame private (no choice point pushed since
    clause entry) before trimming. *)
val trim_env : Clause.exec_frame -> int -> unit

val exec_body : agent -> Builtins.ctx -> Clause.exec_frame -> executed
(** Executes a compiled body from its saved pc: consecutive builtins run
    inline, the first step the kernel cannot finish is decoded for the
    engine.  On [Ex_fail] the trail is NOT unwound here — the engine
    backtracks to its own choice-point mark, exactly as when an
    interpreted body goal fails. *)

val unify_goal : agent -> trail:Trail.t -> Term.t -> Term.t -> bool
(** Plain goal-level unification with the same accounting as a clause
    try (used to replay recorded and-parallel solutions); undoes on
    failure. *)

val untrail : agent -> Trail.t -> int -> unit
(** [untrail a trail mark] undoes to [mark], charging per entry. *)

val unsupported : agent -> Term.t -> 'a
(** Raises the "control construct not supported" engine error. *)

(** The paper's optimization schemas as pure decisions (unit-tested in
    [test/test_kernel.ml]); engines implement only the mechanics. *)
module Schema : sig
  val sequentialize : Config.t -> Clause.body list -> bool
  (** Granularity control (sequentialization schema, §4): true when the
      bounded term-size estimate of the parallel conjunction stays under
      [config.seq_threshold] — run it as a plain conjunction. *)

  val lpco_flatten : Config.t -> Clause.body list -> Clause.body list * int
  (** LPCO (§3.1) as a static flatten: a branch consisting solely of a
      nested parallel conjunction is spliced into the enclosing one.
      Returns the flattened branches and the number of splices (0 when
      the optimization is off or nothing matched). *)

  val spo_inline : Config.t -> hungry:int -> bool
  (** SPO (§4.1) as frame procrastination for the multicore engine: with
      no hungry worker there is nobody to share with, so skip the
      parcall-frame setup entirely and run in place. *)

  val pdo_contiguous : Config.t -> last:(int * int) option -> next:int * int -> bool
  (** PDO (§4.2): true when [next] (frame id, slot index) is the
      sequentially-next slot of the same frame [last] — the agent may
      continue without markers / with sequential preference. *)

  val publish_grain : Config.t -> nalts:int -> bool
  (** Or-parallel granularity: a node is worth publishing only with at
      least [config.grain] untried alternatives. *)

  val lao_refurbish : Config.t -> top_exhausted:bool -> bool
  (** LAO (§3.2): reuse the exhausted top choice point in place instead
      of allocating a new node. *)
end

(** Helpers for recomputation-free and-parallel joins: each parcall slot
    gets a tuple of the free variables of its body; slot solutions are
    recorded as snapshots of that tuple and joined by unifying the tuple
    template against every cross-product row. *)
module Parcall : sig
  val slot_tuples : Clause.body list -> Term.t array option
  (** Per-branch ['$partuple'] terms over the branch's free variables,
      or [None] when two branches share a free variable (not strictly
      independent — the caller must fall back to sequential
      execution). *)

  val template : Term.t array -> Term.t
  (** The ['$parjoin'] term over the live tuples, unified against each
      row. *)

  val cross : Term.t list array -> Term.t list
  (** All ['$parjoin'] rows of the per-slot solution lists, rightmost
      slot varying fastest (the sequential enumeration order). *)
end
