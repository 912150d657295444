(** Term tries keyed on alpha-canonical flattened terms.

    The tabling subsystem ({!Table}) needs *variant detection*: two
    calls that are equal up to variable renaming must share one subgoal
    table.  That reduces to exact lookup on the preorder flattening of a
    term with variables numbered in first-occurrence order — the classic
    subgoal-trie encoding of SLG engines. *)

(** One cell of the preorder flattening.  [Tvar n] is the [n]-th
    distinct variable of the term (first-occurrence numbering), so any
    two alpha-equivalent terms flatten to the same token list. *)
type token =
  | Tatom of Ace_term.Symbol.t
  | Tint of int
  | Tstruct of Ace_term.Symbol.t * int  (** functor, arity *)
  | Tvar of int

(** Alpha-canonical preorder flattening (dereferences as it walks). *)
val tokens : Ace_term.Term.t -> token list

(** Hash of a token list (used by {!Table} to pick a shard).  Depends
    only on the tokens, so alpha-equivalent terms land in the same
    shard. *)
val hash : token list -> int

(** A trie from token lists to values.  Not synchronized: {!Table} holds
    a lock per shard for the hardware engine and skips it for the
    single-threaded simulated engines. *)
type 'a t

val create : unit -> 'a t

val find : 'a t -> token list -> 'a option

(** [add t key v] stores [v] at [key]; any previous value is
    replaced. *)
val add : 'a t -> token list -> 'a -> unit

(** Values in insertion order. *)
val iter : ('a -> unit) -> 'a t -> unit
