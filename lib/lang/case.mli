(** Case keys and open-addressing case tables, shared by the database's
    dispatch trees and the column stores' argument indexes.  A case table
    is an int array of [2 x cap] cells: slot [i] holds its key's tag and
    value at [2i] and [2i+1], tag 0 marking an empty slot. *)

(** A dereferenced term's case tag: 0 unbound (no case), 1 an integer, 2
    an atom, [3 + 4 x arity] a structure. *)
val case_tag : Ace_term.Term.t -> int

(** Its case value: the integer, or the symbol id (0 when unbound). *)
val case_value : Ace_term.Term.t -> int

(** Slots for a table of [n] cases (more than [n], so a probe always
    meets an empty slot). *)
val slot_count : int -> int

(** [slot keys tag v] is the slot holding key ([tag], [v]), or the empty
    slot where it would go.  Allocates nothing. *)
val slot : int array -> int -> int -> int
