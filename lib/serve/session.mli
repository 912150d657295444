(** One tenant's view of a prepared program: a private assert/retract
    overlay over the shared frozen base, plus the cancel tokens of its
    in-flight queries.

    Queries, asserts and retracts of one session serialize on an
    internal lock (the overlay is single-writer); different sessions
    run fully concurrently against the shared base.  {!cancel} and
    {!cancel_all} take effect mid-query from any thread. *)

type t

(** [create ?engine ?config prepared] — [engine] (default
    [Sequential]) and [config] (default {!Ace_machine.Config.default}
    with [compile] on) are the session's defaults; each query may
    override them. *)
val create :
  ?engine:Ace_core.Engine.kind -> ?config:Ace_machine.Config.t ->
  Ace_core.Engine.prepared -> t

(** The session's overlay database (for tests and introspection). *)
val db : t -> Ace_lang.Database.t

type answer = {
  solutions : string list;
      (** instantiated goals in discovery order, each printed on one line
          by {!Ace_term.Pp.to_string} *)
  terms : Ace_term.Term.t list;  (** the same solutions, unprinted *)
  cancelled : Ace_core.Cancel.reason option;
  time_ns : int;  (** wall clock, parse to answer *)
}

(** Parses and runs one goal.  [id] registers the query for {!cancel};
    [deadline_ms] arms the cancel token's wall-clock deadline.  Engine
    errors (unknown predicate, arithmetic, parse, a simulator's step
    cap) come back as [Error msg] — they never tear down the session —
    and so, before anything runs, does a query with [agents] below 1,
    [limit] or [deadline_ms] below 0 (the message names the wire field)
    or a [Par_or] query whose [agents] fails
    {!Ace_core.Engine.check_agents}. *)
val query :
  ?id:int ->
  ?engine:Ace_core.Engine.kind ->
  ?agents:int ->
  ?limit:int ->
  ?deadline_ms:int ->
  t ->
  string ->
  (answer, string) result

(** Fires the cancel token of in-flight query [id]; false when no such
    query is running. *)
val cancel : t -> int -> bool

(** Fires every in-flight query's token (server drain). *)
val cancel_all : t -> unit

(** Number of queries currently in flight. *)
val inflight : t -> int

(** Asserts one clause into the session overlay ([front] = [asserta]). *)
val assert_clause : ?front:bool -> t -> string -> (unit, string) result

(** Retracts the first overlay-view clause unifying with the pattern;
    [Ok false] when none matches. *)
val retract_clause : t -> string -> (bool, string) result
