(** Column stores: a predicate of facts with atomic arguments kept as
    data, one [Term.t] array per argument, rows in source order.

    {!Database.freeze} builds one for each base predicate whose clauses
    are all such facts.  Each argument's index is built the first time a
    call binds that argument, under the database's freeze lock, and published through an [Atomic]: readers
    on other domains and threads never lock.  Selecting rows and trying
    one allocate nothing. *)

type t

(** [create ~lock name ~rows cols]: argument [j] of row [r] is
    [cols.(j).(r)], an atom or an integer.  Index builds take [lock]. *)
val create :
  lock:Mutex.t -> Ace_term.Symbol.t -> rows:int -> Ace_term.Term.t array array -> t

val name : t -> Ace_term.Symbol.t
val arity : t -> int
val rows : t -> int

(** Row [r] as a fact's head term (cold paths: the clause view,
    retract). *)
val row_term : t -> int -> Ace_term.Term.t

(** Indexes built so far. *)
val builds : t -> int

(** Whether argument [j]'s index exists. *)
val indexed : t -> int -> bool

(** {2 Selecting rows} *)

(** The identity row order: position [p] is row [p]. *)
val all_rows : int array

(** A selection: the rows at positions [lo .. hi - 1] of [order]
    ({!row_at}).  Each agent owns one and reuses it. *)
type sel = { mutable order : int array; mutable lo : int; mutable hi : int }

val sel : unit -> sel

(** [row_at order pos]: the row at position [pos] of [order]. *)
val row_at : int array -> int -> int

(** [select st args sel] fills [sel] with the rows that can match a call
    whose arguments are the first cells of [args], in source order: the
    smallest group among the indexes of its bound arguments (each built
    the first time a call binds that argument); every row when no
    argument is bound; none when a bound argument is a structure or a
    key no row holds.  Allocates nothing once the indexes exist. *)
val select : t -> Ace_term.Term.t array -> sel -> unit

(** [unify_row st r args trail] unifies row [r] with the call's
    arguments, binding unbound ones to the row's cells through
    [Unify.bind] (so the trail's watermark applies).  Positive: the
    arguments read, all matched.  Negative: minus the arguments read,
    the last one mismatched; the bindings made stay trailed (the caller
    undoes to its mark). *)
val unify_row : t -> int -> Ace_term.Term.t array -> Ace_term.Trail.t -> int

(** Seeded mutation hook, mirroring {!Code.mutation}: [Some k] makes
    every index probe drop one matching row (position [k mod n] of its
    [n]).  CI's store-smoke test sets it and requires the differential
    oracle to fail.  Never set outside tests. *)
val mutation : int option ref
