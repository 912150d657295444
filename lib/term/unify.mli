(** Unification over {!Term.t} with trailing and step counting. *)

(** [bind trail v t] binds [v] to [t] and trails it ({!Trail.push}: if
    the trail's watermark says backtracking can undo it) — the single
    binding primitive, also used by the compiled head code
    ({!Ace_lang.Code}). *)
val bind : Trail.t -> Term.var -> Term.t -> unit

(** [unify ~trail ~steps a b] unifies destructively, trailing each binding.
    [steps] is incremented per visited pair (engines charge time
    proportionally).  On failure, bindings made so far are NOT undone —
    callers undo to their own trail mark (or use {!unify_or_undo}). *)
val unify :
  ?occurs_check:bool -> trail:Trail.t -> steps:int ref -> Term.t -> Term.t -> bool

(** Like {!unify} but restores the trail on failure (what it recorded:
    bindings of variables younger than the watermark stay, for the
    caller's backtracking to leave behind). *)
val unify_or_undo :
  ?occurs_check:bool -> trail:Trail.t -> steps:int ref -> Term.t -> Term.t -> bool

(** Satisfiability check that leaves no bindings behind. *)
val matches : ?occurs_check:bool -> Term.t -> Term.t -> bool

(** [occurs v t] is the occurs check used by [unify ~occurs_check:true]. *)
val occurs : Term.var -> Term.t -> bool
