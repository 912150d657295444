(** Facade over the sequential, and-parallel and or-parallel engines. *)

type kind =
  | Sequential
  | And_parallel
  | Or_parallel
      (** MUSE-style or-parallelism on the deterministic simulator *)
  | Par_or
      (** MUSE-style or-parallelism on real OCaml 5 domains
          ({!Par_or_engine}); [config.agents] = number of domains *)

val kind_to_string : kind -> string

(** Inverse of {!kind_to_string}; the error reads
    [unknown engine "x" (seq|and|or|par)]. *)
val kind_of_string : string -> (kind, string) result

(** The [Config.compile] values that give [kind] distinct execution
    paths: [[false; true]] on [Sequential] (interpreted reference,
    compiled production path), one value on every other engine, which
    ignores the field — the simulators always interpret (the paper's
    cost model) and [Par_or] always runs compiled clause code. *)
val compile_modes : kind -> bool list

(** The most domains one [Par_or] run may ask for: a fixed budget well
    under OCaml 5.1's limit of 128 live domains, so a request cannot
    exhaust them. *)
val max_par_agents : int

(** [Error msg] when [kind] spawns domains ([Par_or]) and [agents] is
    outside [1 .. max_par_agents]; the simulators' agents are coroutines
    and stay uncapped.  Callers check before running, so a refused
    request spawns nothing. *)
val check_agents : kind -> int -> (unit, string) result

(** {1 Run options and results}

    Defined once in {!Run}: [opts], [default_opts], [result] and the
    engines' common [solver] type. *)

include module type of struct
  include Run
end

(** {1 Prepared programs and sessions}

    The run lifecycle in two steps: {!prepare} does the expensive,
    shareable part once (consult, freeze, clause compilation); {!run} is
    the cheap per-query part.  A [prepared] value is immutable — many
    queries, including concurrent ones from different domains, can [run]
    against the same [prepared].  Per-client [assert]/[retract] go
    through a {!session} overlay, never the shared base. *)

type prepared

(** Freezes (and thereby compiles) the database.  The database must not
    be mutated afterwards except through {!session} overlays. *)
val prepare : Ace_lang.Database.t -> prepared

(** Consults [program] source and prepares it. *)
val prepare_string : string -> prepared

(** The underlying frozen database. *)
val database : prepared -> Ace_lang.Database.t

(** A fresh session overlay: assert/retract on it are private to the
    session and shadow the shared base (see
    {!Ace_lang.Database.overlay}). *)
val session : prepared -> Ace_lang.Database.t

(** Runs [goal] on [kind] with [opts] (default {!default_opts}).
    [session] runs it against a session overlay (from {!session})
    instead of the shared base.  [config] is checked first, the same
    way for every engine ({!Ace_machine.Config.validate}: raises
    [Invalid_argument]); [max_solutions = Some 0] returns no solutions
    without running an engine.

    The engines bind [goal]'s variables in place while they run; [run]
    unbinds them again on every exit (exhausted, solution limit,
    cancelled, raised), so the same parsed goal can be run again.
    [result.stats] counts the minor words the run allocated, exactly,
    and the words promoted meanwhile (summed over the worker domains on
    [Par_or]). *)
val run :
  ?opts:opts ->
  ?session:Ace_lang.Database.t ->
  kind ->
  Ace_machine.Config.t ->
  prepared ->
  Ace_term.Term.t ->
  result

(** [prepare] + {!run} in one call — the one-shot convenience used by the
    harness and tests. *)
val solve :
  ?opts:opts ->
  kind ->
  Ace_machine.Config.t ->
  Ace_lang.Database.t ->
  Ace_term.Term.t ->
  result

(** Consults [program] source and runs [query]. *)
val solve_program :
  ?opts:opts ->
  kind ->
  Ace_machine.Config.t ->
  program:string ->
  query:string ->
  result
