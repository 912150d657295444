(** Binding trail: records variables bound since a mark so backtracking can
    restore them.

    The trail keeps a watermark [hb] (the WAM's HB register), a creation
    stamp ({!Term.stamp}): {!push} records only variables with
    [vid <= hb].  A machine that keeps [hb] at the stamp of its newest
    choice point (or mark) skips the bindings no backtracking can need to
    undo. *)

type t

(** An empty trail with [hb = max_int]: it records every binding. *)
val create : unit -> t

(** Current position, to be passed to {!undo_to}. *)
val mark : t -> int

val size : t -> int

(** The watermark. *)
val hb : t -> int

val set_hb : t -> int -> unit

(** Raises the watermark to {!Term.stamp}, so that every variable that
    exists now is trailed from here on, and returns the value it had
    (for {!set_hb} to restore).  A trail at [max_int] stays there. *)
val raise_hb : t -> int

(** Records that [v] was just bound, if [v.vid <= hb]. *)
val push : t -> Term.var -> unit

(** Unbinds everything trailed after the mark; returns the count undone. *)
val undo_to : t -> int -> int

(** [segment t ~lo ~hi] captures the trailed variables in [lo, hi) so they
    can be undone later out of order (used by the shallow-parallelism
    optimization, which records a deterministic subgoal's trail section in
    its parcall slot instead of allocating markers). *)
val segment : t -> lo:int -> hi:int -> Term.var array

(** Unbinds a captured segment; returns the count undone. *)
val undo_segment : Term.var array -> int
