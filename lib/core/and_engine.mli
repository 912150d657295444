(** The and-parallel engine (&ACE): parcall frames, input/end markers, work
    stealing over simulated agents, inside/outside backtracking with
    recomputation, and the LPCO, SPO and PDO optimizations of the paper
    (switched from {!Ace_machine.Config}).

    Subgoals of a parallel conjunction must be strictly independent (share
    no unbound variables at call time) — the standard &ACE condition.  Cut
    and control constructs other than [call/1] are rejected.

    Clauses are always interpreted (the paper's cost model);
    [config.compile] is not read. *)

type t

type result = {
  solutions : Ace_term.Term.t list;
      (** snapshots of the instantiated goal, in discovery order *)
  stats : Ace_machine.Stats.t;  (** merged over all simulated agents *)
  per_agent : Ace_machine.Stats.t array;
      (** one single-writer shard per simulated agent; [stats] is their
          merge *)
  time : int;  (** simulated completion time, abstract cycles *)
}

(** [trace] (default {!Ace_obs.Trace.disabled}) collects per-agent event
    rings (slot start/finish, steal, LPCO/SPO/PDO hits, solutions) stamped
    with the simulator's virtual clock.

    [chaos] (default {!Ace_sched.Chaos.disabled}) charges seeded extra
    virtual cycles at choice-point and steal yield sites and skips frames
    during steal scans — deterministic schedule exploration on the
    simulator; the solution multiset must be invariant across seeds.

    [cancel] (default {!Cancel.none}) is polled at the exec, backtrack
    and steal chokepoints; once fired the simulation stops like a
    satisfied solution limit, returning the solutions recorded so far. *)
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

(** Runs the query to exhaustion (or [config.max_solutions]). *)
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
