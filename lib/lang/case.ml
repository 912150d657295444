(* Case keys and open-addressing case tables, shared by the database's
   dispatch trees and the column stores' argument indexes.

   A case key is two integers read off a dereferenced term: its tag (1
   an integer, 2 an atom, 3 + 4 x arity a structure; 0, an unbound
   term, has no case) and its value (the integer or the symbol id).  A
   case table is an int array of [2 x cap] cells: slot [i] holds its
   key's tag and value at [2i] and [2i+1], tag 0 marking an empty slot.
   Probing allocates nothing and compares no string. *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol

let case_tag = function
  | Term.Var _ -> 0
  | Term.Int _ -> 1
  | Term.Atom _ -> 2
  | Term.Struct (_, args) -> 3 + (Array.length args lsl 2)

let case_value = function
  | Term.Var _ -> 0
  | Term.Int n -> n
  | Term.Atom s | Term.Struct (s, _) -> Symbol.id s

(* Slots for [n] cases: one and a half per case, so a probe always
   meets an empty slot and runs are short. *)
let slot_count n = n + (n lsr 1) + 1

(* The slot holding key ([tag], [v]), or the empty slot where it would
   go: linear probing from a multiplicative hash of the key, scaled to
   [cap] slots without a division. *)
let rec slot_from (keys : int array) cap tag v i =
  let t = keys.(2 * i) in
  if t = 0 || (t = tag && keys.((2 * i) + 1) = v) then i
  else slot_from keys cap tag v (if i + 1 = cap then 0 else i + 1)

let slot keys tag v =
  let cap = Array.length keys lsr 1 in
  let h = ((v lxor (tag lsl 32)) * 0x2545F4914F6CDD1D) lsr 32 in
  slot_from keys cap tag v ((h * cap) lsr 31)
