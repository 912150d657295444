(** Clause database with first-argument indexing.

    Indexing is what makes runtime determinacy observable to the engines:
    a call with a single surviving clause allocates no choice point, which
    is the trigger condition for the paper's LPCO and shallow-parallelism
    optimizations.  {!freeze} builds each predicate's indexes, a
    first-argument case table ({!lookup}) and a switch-on-term dispatch
    tree ({!lookup_code}); on a frozen database neither lookup
    allocates. *)

type t

val create : unit -> t

val assertz : t -> Clause.t -> unit
val asserta : t -> Clause.t -> unit

val mem : t -> string -> int -> bool

(** Clauses of a predicate in source order (no indexing). *)
val clauses_of : t -> string -> int -> Clause.t list

(** Candidate clauses for a call after first-argument indexing, in
    source order: exactly the clauses whose head's first argument can
    match the call's (an unbound argument on either side matches
    anything; rigid ones match when they are the same integer or atom,
    or structures of one name and arity).  [None] when the predicate is
    undefined.  On a frozen database, and through an overlay holding no
    clause of the predicate and no tombstone, it allocates nothing. *)
val lookup : t -> Ace_term.Term.t -> Clause.t list option

(** Candidate clauses for a call through the switch-on-term dispatch tree
    with deep argument indexing (the compiled path's {!lookup}); built by
    {!freeze}, falls back to {!lookup}'s first-argument test on an
    unfrozen database.  Like {!lookup}, [None] means the predicate is
    undefined, and the result is in source order — only provably
    non-unifiable clauses are filtered out, so solution sets are
    unchanged (choice-point counts may shrink). *)
val lookup_code : t -> Ace_term.Term.t -> Clause.t list option

(** {!lookup_code} with the call spread in a register file (the
    compiled body path never packs a [Term.Struct] for the call): [args]
    holds the goal's arguments in its first [arity] cells and may be
    longer.  On a frozen database that the caller has not overlaid, it
    allocates nothing: the result is one the dispatch tree holds. *)
val lookup_code_args :
  t -> Ace_term.Symbol.t -> int -> Ace_term.Term.t array -> Clause.t list option

(** Builds every predicate's first-argument table and dispatch tree, so
    later lookups are allocation-free pure reads (safe to share across
    domains), and compiles every clause.  Asserting drops the affected
    predicate's indexes; freeze again after updates.  On a session
    overlay it only compiles the session's own clauses, which lookups
    filter linearly.  Idempotent, and thread-safe: concurrent freezes
    serialize on an internal lock and the frozen flag is published only
    after the indexes are completely built, so two sessions freezing the
    same base cannot race the build or observe a half-built index. *)
val freeze : t -> unit

(** {2 Session overlays}

    A session overlay is a private delta over a shared frozen base:
    clauses asserted into the overlay are visible only through it
    ([asserta]'d ones before the base's clauses, [assertz]'d ones
    after), {!retract} deletes the session's own clauses and tombstones
    base clauses without writing the base, and every lookup merges the
    delta around the base's indexed answer.
    The base is never mutated, so any number of sessions can overlay
    the same database while engines run queries against it. *)

(** [overlay base] freezes [base] and returns a fresh empty overlay
    over it.  Raises [Invalid_argument] if [base] is itself an overlay
    (deltas do not stack). *)
val overlay : t -> t

(** The overlay's base database; [None] for an ordinary database. *)
val base : t -> t option

(** [retract db pattern] removes the first clause of the session view
    (overlay [asserta]s, then base, then overlay [assertz]s) whose
    [H :- B] term unifies with [pattern]'s; returns [false] when no
    clause matches.  Candidates come from {!lookup} on the pattern's
    head, so only clauses whose first argument can match are unified.
    Overlay-only: raises [Invalid_argument] on a database without a
    base. *)
val retract : t -> Clause.t -> bool

(** Registers a predicate for SLG tabling (the [:- table name/arity]
    directive, applied by {!Program} at consult time). *)
val set_tabled : t -> string -> int -> unit

(** Whether [sym/arity] is tabled — integer-keyed and gated on a single
    boolean, so untabled programs pay one load per call. *)
val is_tabled : t -> Ace_term.Symbol.t -> int -> bool

(** {!is_tabled} of a goal term's functor. *)
val is_tabled_goal : t -> Ace_term.Term.t -> bool

(** Tabled predicates, sorted. *)
val tabled_preds : t -> (string * int) list

(** Defined predicates, sorted. *)
val predicates : t -> (string * int) list

val total_clauses : t -> int

(** Base clauses a session overlay has retracted (hides by tombstone);
    0 for an ordinary database.  The session's own retracted clauses
    leave the overlay and are not counted. *)
val tombstones : t -> int

(** No two clauses of the predicate can match the same non-variable first
    argument (static determinacy). *)
val first_arg_exclusive : t -> string -> int -> bool
