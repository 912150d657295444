(** The shared solver kernel.

    All four engines (sequential, simulated and-parallel, simulated
    or-parallel, multicore or+and) resolve goals the same way: classify
    the goal, dispatch builtins through {!Builtins}, look clauses up in
    the frozen database, unify a renamed head, and undo the trail on
    failure — while charging the {!Ace_machine.Cost} table and updating a
    {!Ace_machine.Stats} shard.  This module owns that common machinery
    as plain functions over one concrete {!agent} record, which each
    engine builds per execution context, so each engine keeps only its
    scheduling policy (stacks, stealing, frames, publication).  A record
    rather than a functor over the engine: OCaml without flambda calls
    every functor-argument operation indirectly and never inlines it.

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

(** How an agent pays the charges the kernel makes. *)
type clock =
  | Cycles  (** added up in [cycles] (the sequential engine) *)
  | Wall  (** dropped: the multicore engine is timed by the wall clock *)
  | Ticks of Ace_sched.Sim.t
      (** each charge advances the simulated agent running it *)

(** One execution context: the sequential machine, one multicore worker
    domain, or one simulated agent.  Every field but [cycles] and [prof]
    is fixed at creation; [stats], [sc], [prof] and [tbuf] are private
    to the context (single writer). *)
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
          a load and a branch); mutable because a profiler clock may need
          the agent *)
  cancel : Cancel.t;
      (** polled inside the tabling mini-solver, whose evaluation never
          passes through an engine chokepoint: {!table_call} then raises
          {!Cancel.Cancelled}, leaving the entry incomplete but
          consistent (monotone partial answers; the next caller
          re-evaluates) *)
  clock : clock;
  mutable cycles : int;  (** abstract cycles charged so far ([Cycles]) *)
  tbuf : Ace_obs.Trace.buffer;
}

(** A fresh agent with its own scratch, [cycles] 0 and no profiler
    shard. *)
val agent :
  name:string -> cost:Cost.t -> stats:Stats.t -> cancel:Cancel.t ->
  clock:clock -> Ace_obs.Trace.buffer -> agent

(** Records a trace event into the agent's buffer, stamped by its clock
    (its cycles, the simulator's virtual time, or the wall clock). *)
val record : agent -> Ace_obs.Trace.kind -> int -> unit

(** Goal classification shared by every dispatch loop.  Constructors
    carry the decomposed subterms; [Goal] carries the dereferenced
    term. *)
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

(** True exactly when {!classify} would answer [Goal] — the argument
    must already be dereferenced.  Allocation-free, so dispatch loops
    test it before paying for a full classification (plain calls are the
    vast majority of dispatches). *)
val is_plain : Term.t -> bool

(** Builds the report-and-fail continuation for a whole-search engine:
    the compiled query followed by the ['$solution'] sentinel. *)
val sentinel_body : Term.t -> Clause.body

(** Merges per-agent stat shards into a fresh total (the shards must no
    longer be written; see the {!Stats.merge_into} ownership
    contract). *)
val merge_shards : Stats.t array -> Stats.t

(** What one clause try resolved to.  [R_exec] is the last-call case:
    the clause body ran to its final user call entirely on the scratch
    frame, the callee's arguments are loaded in the agent's registers
    ([agent.sc]), and nothing was stacked — the engine re-enters clause
    selection directly ({!select_args}), so a determinate recursion loops
    in constant space. *)
type resolved =
  | R_fail
  | R_body of Clause.body
  | R_exec of Ace_term.Symbol.t * int  (** callee, arity; args in registers *)

(** Where {!exec_body} stopped — the next thing the engine must
    schedule.  [Ex_call]/[Ex_exec] have the callee's arguments loaded in
    the scratch registers; [Ex_call] also carries the pc to resume the
    frame at and the number of frame slots still live there (see
    {!trim_env}). *)
type executed =
  | Ex_fail
  | Ex_done
  | Ex_call of Ace_term.Symbol.t * int * int * int
  | Ex_exec of Ace_term.Symbol.t * int
  | Ex_goal of Term.t * int
  | Ex_par of Clause.body list * int

(** The {!Ace_lang.Code.t} behind an [Exec] item's extensible code slot. *)
val code_of_frame : Clause.exec_frame -> Ace_lang.Code.t

(** [exec_cont xf pc rest] is the continuation that resumes [xf] at
    [pc] — just [rest] when the body is exhausted, so no empty frames
    are ever stacked (the last-call generalization). *)
val exec_cont : Clause.exec_frame -> int -> Clause.body -> Clause.body

(** Materializes a register call as a goal term (the multi-candidate
    slow path: goals inside choice points must outlive the registers). *)
val goal_of_regs : Ace_term.Symbol.t -> int -> Term.t array -> Term.t

(** [trim_env xf live] clears the dead slot suffix of the frame so the
    terms it holds become collectable.  The clears are not trailed:
    callers must prove the frame private (no choice point pushed since
    clause entry) before trimming. *)
val trim_env : Clause.exec_frame -> int -> unit

val call_builtin : agent -> Builtins.ctx -> Term.t -> Builtins.outcome
(** Runs a builtin, translating its unification/arithmetic work and
    trail growth into charges and stats. *)

val try_clause : agent -> trail:Trail.t -> Term.t -> Clause.t -> resolved
(** Unifies a renamed clause head against the goal; on success returns
    the instantiated body ([R_body], never [R_exec]), on failure undoes
    the partial bindings (charged). *)

val try_code :
  agent -> ctx:Builtins.ctx -> trail:Trail.t -> Term.t -> Clause.t -> resolved
(** Compiled counterpart of {!try_clause}: executes the clause's flat
    instruction code ({!Ace_lang.Code}) against the goal arguments — same
    trail contract, charged per executed instruction ([Cost.code_instr])
    plus embedded unification steps.  A scratch-eligible body (builtins +
    final execute) runs to its last call inline, yielding [R_exec] or
    [R_body []]; any other body escapes as one [Clause.Exec] item over a
    heap environment (counted in [Stats.env_allocs]). *)

val try_code_args :
  agent -> ctx:Builtins.ctx -> trail:Trail.t -> Term.t array -> Clause.t ->
  resolved
(** {!try_code} with the caller's arguments spread in a register file
    (the [R_exec] fast path — no goal term on either side). *)

val resolve :
  agent -> ctx:Builtins.ctx -> compiled:bool -> trail:Trail.t -> Term.t ->
  Clause.t -> resolved
(** {!try_code} when [compiled], {!try_clause} otherwise (the sequential
    engine's two modes; every other engine calls one of them
    directly). *)

val exec_body : agent -> ctx:Builtins.ctx -> Clause.exec_frame -> executed
(** Executes a compiled body from its saved pc: consecutive builtins run
    inline, the first step the kernel cannot finish is decoded for the
    engine.  On [Ex_fail] the trail is NOT unwound here — the engine
    backtracks to its own choice-point mark, exactly as when an
    interpreted body goal fails. *)

val unify_goal : agent -> trail:Trail.t -> Term.t -> Term.t -> bool
(** Plain goal-level unification with the same accounting as a clause
    try (used to replay recorded and-parallel solutions); undoes on
    failure. *)

val select : agent -> compiled:bool -> Database.t -> Term.t -> Clause.t list
(** Indexed clause lookup, raising the existence error for unknown
    procedures: the compiled path selects through the deep-indexing
    dispatch tree ({!Database.lookup_code}), the interpreted path through
    first-argument indexing. *)

val select_args :
  agent -> Database.t -> Ace_term.Symbol.t -> int -> Term.t array ->
  Clause.t list
(** Clause selection for a register call: the dispatch tree walked from
    the register file (compiled path only). *)

val untrail : agent -> Trail.t -> int -> unit
(** [untrail a trail mark] undoes to [mark], charging per entry. *)

val unsupported : agent -> Term.t -> 'a
(** Raises the "control construct not supported" engine error. *)

val table_call :
  agent -> table:Ace_lang.Table.t -> ctx:Builtins.ctx -> compiled:bool ->
  db:Database.t -> Term.t -> Clause.t list
(** SLG evaluation of a tabled call.  Ensures the call's subgoal table is
    complete — when it is not, the calling agent evaluates the subgoal to
    completion right here with a private solver (saved consumers resumed
    with the answers they have not seen, over the subgoal's
    strongly-connected region; see DESIGN.md, "Tabling") — then returns
    the answers as pseudo-fact clauses, precompiled, so the engine
    enumerates them through its ordinary clause machinery.  Workers never
    block on each other: concurrent callers of an incomplete subgoal
    evaluate redundantly and deduplicate through the shared answer
    table.  Raises the engine error when a subgoal exceeds
    [Table.max_answers]. *)

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

  val chunk_alts : Config.t -> 'a list -> 'a list list
  (** Splits published alternatives into runs of at most [config.chunk]
      (0 = one run). *)

  val lao_refurbish : Config.t -> top_exhausted:bool -> bool
  (** LAO (§3.2): reuse the exhausted top choice point in place instead
      of allocating a new node. *)
end

(** State copying shared by the copying engines: [snapshot_*] resolves
    bindings away (publishing self-contained tasks), [raw_*] preserves
    bindings so the receiving trail can undo them (MUSE stack copy).
    [cells] counts copied cells for cost accounting. *)
module Copy : sig
  type table = (int, Term.var) Hashtbl.t

  val snapshot_term : table -> int ref -> Term.t -> Term.t
  val snapshot_body : table -> int ref -> Clause.body -> Clause.body
  val raw_term : table -> int ref -> Term.t -> Term.t
  val raw_items : table -> int ref -> Clause.item list -> Clause.item list
  val raw_var : table -> int ref -> Term.var -> Term.var
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
