(** Differential oracle: one generated case, all four engines, a matrix of
    optimization settings and seeded chaos schedules; solution multisets
    are compared alpha-canonically against the sequential reference. *)

type outcome = Solutions of string list | Error of string

type mutation = { m_engine : Ace_core.Engine.kind; m_drop : int }
(** Drop generated clause [m_drop mod clause_count] from the program copy
    given to [m_engine] only — an injected semantics bug the oracle must
    catch (mutation smoke test). *)

type verdict =
  | Agree of int  (** number of runs compared against the reference *)
  | Skip of string  (** case not comparable (e.g. solution cap exceeded) *)
  | Disagree of {
      d_label : string;  (** engine/config label, e.g. ["or@4 chaos#1"] *)
      d_expected : outcome;
      d_got : outcome;
      d_chaos : string;  (** chaos spec for replay, or ["off"] *)
    }

val outcome_to_string : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit

(** Runs one engine on program source, collecting solutions as sorted
    canonical strings; engine / arithmetic / syntax errors become
    [Error]. *)
val run_engine :
  ?chaos:Ace_sched.Chaos.t ->
  ?profiled:bool ->
  Ace_core.Engine.kind ->
  Ace_machine.Config.t ->
  program:string ->
  query:string ->
  outcome

(** [check ~schedules case] runs the full matrix: sequential reference,
    jittered sequential, and/or engines with each optimization schema on
    and off plus grain/chunk/threshold sweeps, the domains engine, and
    [schedules] seeded chaos schedules per parallel engine (derived from
    the case seed, so counterexamples replay from the printed pair).
    [extra_chaos] appends one run per engine under exactly that spec —
    counterexample replay from a printed [--check-chaos] line.

    One matrix row always runs with the per-predicate profiler enabled:
    profiling must never perturb the solution multiset. *)
val check :
  ?schedules:int ->
  ?mutation:mutation ->
  ?extra_chaos:Ace_sched.Chaos.t ->
  Gen_prog.t ->
  verdict

(** True when [check] returns [Disagree] — the shrinker's property. *)
val fails :
  ?schedules:int ->
  ?mutation:mutation ->
  ?extra_chaos:Ace_sched.Chaos.t ->
  Gen_prog.t ->
  bool
