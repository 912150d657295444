(** Seeded random generator of closed Prolog programs + queries over the
    subset all four engines accept (no cut / disjunction / if-then-else /
    negation).  Programs terminate by construction: the generated call
    graph is acyclic and the only recursion is a fixed list prelude always
    driven by a ground list literal. *)

type term =
  | Int of int
  | Atm of string
  | Var of string
  | Lst of term list
  | App of string * term list

type goal =
  | Call of term
  | Par of term * term
      (** [g1 & g2]; generated variable-free, hence strictly independent *)

type clause = { c_head : term; c_body : goal list }

type t = {
  seed : int;
  arities : int array;
  clauses : clause list;  (** generated clauses only (prelude excluded) *)
  query : goal list;
  tabled : (string * int) list;
      (** predicates under [:- table] — non-empty exactly for the tabled
          (Datalog) cases, which the oracle checks against {!Naive} *)
}

(** Same seed, same program — byte for byte.  Every fourth seed
    ([seed mod 4 = 3]) generates a {e tabled} case: a ground edge
    relation plus [:- table]d recursive rules (left/right/doubly/mutually
    recursive or same-generation) that only terminate under SLG.  Two
    seeds in eight ([seed mod 8 < 2]) add a {e fact table} to their
    untabled program, after its clauses: 8-40 atomic facts with repeated
    keys (a predicate the database stores as columns), called with every
    binding pattern from a clause body and from query goals put before
    the program's own.  The added goals have exactly one answer, so the
    program's answers are the same as without the table. *)
val generate : seed:int -> t

(** Full program source (prelude + generated clauses).  [drop] omits the
    clause at that index — used by the mutation smoke test to inject a
    semantics bug into a single engine's copy. *)
val program_text : ?drop:int -> t -> string

val query_text : t -> string

(** Number of generated clauses (shrink size metric). *)
val clause_count : t -> int

(** Prints the program and query as consultable source with the seed in a
    comment — the replay line of a counterexample. *)
val pp : Format.formatter -> t -> unit
