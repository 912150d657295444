(** Operator table for the parser (standard ISO core operators plus the
    ['&'/2] parallel-conjunction operator at priority 950, binding tighter
    than [','], as in ACE).
    Lookups are by interned symbol, reading arrays indexed by symbol id. *)

type assoc = Xfx | Xfy | Yfx

type infix = { prio : int; assoc : assoc }

val infix : Ace_term.Symbol.t -> infix option

(** [prefix s] is [Some (prio, strict)]; [strict] means the argument must
    have strictly smaller priority ([fy] operators are non-strict). *)
val prefix : Ace_term.Symbol.t -> (int * bool) option

val is_operator : Ace_term.Symbol.t -> bool
