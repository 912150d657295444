(** Operator-aware term printing.  Printed output re-parses (via
    [ace_lang]) to an equal term, which the test suite checks by
    property.  Output is always a single line. *)

(** Prints {!to_string}'s line (never wrapped, whatever the formatter's
    margin). *)
val pp : Format.formatter -> Term.t -> unit

(** Unbound variables print as [_G<id>]. *)
val to_string : Term.t -> string

(** Alpha-invariant rendering: unbound variables are numbered by first
    occurrence and print as ['_V0'], ['_V1'], ..., so alpha-equivalent
    terms (e.g. the same solution copied by different engines) print
    identically.  Reads the term only: safe concurrently with other
    readers. *)
val to_canonical_string : Term.t -> string

(** [add_int buf n] writes [n]'s decimal digits (as [string_of_int n])
    into [buf], with no string in between. *)
val add_int : Buffer.t -> int -> unit
