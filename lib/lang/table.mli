(** The shared answer table for SLG tabling.

    One table lives for the duration of one engine run and is shared by
    every worker of that run.  Subgoals are filed in per-shard subgoal
    tries keyed on the alpha-canonical flattening of the call
    ({!Trie.tokens}), so variant calls — equal up to variable renaming —
    share one {!entry}.  Each entry owns an answer trie with
    insert-if-new semantics plus the answers in insertion order.

    Shard discipline (mirroring [lib/obs]): the table is split into
    {!shards} shards by subgoal-token hash.  Created with
    [~locked:true] (the hardware Domains engine) every shard operation
    takes the shard's mutex; with [~locked:false] (the sequential and
    simulated engines, which interleave but never run concurrently) the
    locks are skipped entirely.  Stored subgoals and answers are
    resolved copies — immutable once published — so readers never need
    a lock: completion flags are {!Stdlib.Atomic} and list updates are
    single-word writes of immutable spines. *)

type entry = {
  id : int;  (** unique per table; allocation order *)
  subgoal : Ace_term.Term.t;
      (** canonical instance of the call (resolved copy; read-only) *)
  mutable answers_rev : Ace_term.Term.t list;  (** newest first *)
  answer_trie : unit Trie.t;
  complete : bool Atomic.t;
  mutable answer_clauses : Clause.t list option;
      (** pseudo-fact clauses over the final answers, cached by the
          kernel once the entry is complete *)
}

type t

(** [create ~locked ~max_answers ()] — [locked] arms the per-shard
    mutexes (hardware engine only); [max_answers = 0] means unlimited.
    An unlocked table builds its shards at the first tabled call, so a
    run that makes none pays only for the table record. *)
val create : ?locked:bool -> ?max_answers:int -> unit -> t

val max_answers : t -> int

(** Seeded mutation hook for CI must-fail runs, mirroring
    [Code.mutation]: [Some k] silently truncates every answer set to its
    first [k] answers (later inserts are reported as {!Duplicate}).
    Every engine shares the broken table, so engines still agree with
    each other and only an independent reference evaluator can catch
    it — exactly what the tabled oracle rows must prove they do. *)
val mutation : int option ref

(** [subgoal_entry t call] returns the entry for [call]'s variant class
    and whether it was just created. *)
val subgoal_entry : t -> Ace_term.Term.t -> entry * bool

(** Entry lookup without creation (tests, introspection). *)
val find_entry : t -> Ace_term.Term.t -> entry option

type inserted =
  | Inserted
  | Duplicate
  | Overflow  (** the per-subgoal [max_answers] guard tripped *)

(** [insert t entry answer] files a resolved copy of [answer] in the
    entry's answer trie.  [answer] must be the instantiated subgoal
    (the caller resolves it; this function does not copy). *)
val insert : t -> entry -> Ace_term.Term.t -> inserted

(** Answers in insertion order (a snapshot: the list only grows). *)
val answers : entry -> Ace_term.Term.t list

val answer_count : entry -> int

val is_complete : entry -> bool

(** Marks [entry] complete and appends its canonical subgoal string to
    the completion log (once: later calls are no-ops, so racing workers
    log a region exactly once). *)
val set_complete : t -> entry -> unit

(** Canonical subgoal strings in completion order — the golden record
    for incremental-completion tests. *)
val completion_log : t -> string list

(** All entries, in creation order. *)
val entries : t -> entry list

val subgoal_count : t -> int
