(** The shared answer table for SLG tabling.

    One table lives for the duration of one engine run and is shared by
    every worker of that run.  Subgoals are filed in per-shard subgoal
    tries keyed on the alpha-canonical flattening of the call
    ({!Trie.tokens}), so variant calls — equal up to variable renaming —
    share one {!entry}.  Each entry keeps its answers in insertion order
    in one append-only array with an atomic count, plus a duplicate
    index (open addressing over variant hashes) that {!insert} probes
    with the live answer, so a duplicate is neither tokenized nor
    copied.

    Shard discipline (mirroring [lib/obs]): the table is split into
    {!shards} shards by subgoal-token hash.  Created with
    [~locked:true] (the hardware Domains engine) every shard operation
    takes the shard's mutex; with [~locked:false] (the sequential and
    simulated engines, which interleave but never run concurrently) the
    locks are skipped entirely.  Stored subgoals and answers are
    resolved copies — immutable once published — so readers never need
    a lock: completion flags and answer counts are {!Stdlib.Atomic}, and
    an answer is in place before the count that covers it is
    published. *)

type entry = {
  id : int;  (** unique per table; allocation order *)
  subgoal : Ace_term.Term.t;
      (** canonical instance of the call (resolved copy; read-only) *)
  lock : Mutex.t;  (** the owning shard's mutex: serializes {!insert} *)
  store : Ace_term.Term.t array Atomic.t;
      (** answer [i] at index [i] for [i < answer_count]; replaced by a
          larger copy when full *)
  count : int Atomic.t;
  mutable hashes : int array;  (** writer side: variant hash of answer [i] *)
  mutable index : int array;  (** writer side: the duplicate index *)
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

(** [insert t entry answer] appends a resolved copy of [answer] (the
    instantiated subgoal, read through its bindings) unless a variant of
    it is already there.  Only a new answer is copied. *)
val insert : t -> entry -> Ace_term.Term.t -> inserted

(** Answers stored so far: O(1), lock-free, and only ever grows. *)
val answer_count : entry -> int

(** [answer entry i] is the [i]-th answer in insertion order, for
    [i < answer_count entry] (read before): lock-free, so a consumer can
    read by index while other workers append. *)
val answer : entry -> int -> Ace_term.Term.t

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
