(** The multi-tenant query server.

    One listener thread accepts connections; each connection gets a
    reader thread and its own {!Session.t} (private overlay, shared
    frozen base).  Control ops (ping, cancel, assert, retract, stats)
    are answered on the reader thread; queries go through admission
    control into a bounded active-work pool drained by [workers]
    worker threads — the ACL2-parallel-style throttle: when
    [max_active] queries are already admitted (queued or running), new
    ones are refused with the ["overloaded"] backpressure error
    instead of queueing without bound.

    {!drain} (wired to SIGTERM/SIGINT by [ace_serve]) stops accepting,
    refuses new queries, fires the cancel token of every in-flight
    query, and lets the workers finish; {!wait} joins everything. *)

type t

type stats = {
  active : int;  (** queries admitted and not yet answered *)
  served : int;  (** queries answered (including cancelled ones) *)
  rejected : int;  (** queries refused by admission control *)
  connections : int;  (** currently open connections *)
}

(** [create ~listen prepared] binds and listens on [listen] (Unix or
    TCP sockaddr).  [workers] (default 4) sizes the query pool;
    [max_active] (default [2 * workers]) is the admission-control
    bound; [engine]/[config] are the per-session defaults (see
    {!Session.create}).  Threads start immediately. *)
val create :
  ?workers:int ->
  ?max_active:int ->
  ?engine:Ace_core.Engine.kind ->
  ?config:Ace_machine.Config.t ->
  listen:Unix.sockaddr ->
  Ace_core.Engine.prepared ->
  t

val stats : t -> stats

(** Graceful shutdown: stop accepting, refuse new work, cancel
    in-flight queries.  The listener closes its socket and, for a Unix
    socket, unlinks its path.  Idempotent, safe from a signal handler's
    deferred context or any thread. *)
val drain : t -> unit

(** Blocks until the listener, workers and connection readers have all
    exited (after {!drain}, or a client sent [quit] to a server whose
    listener already stopped). *)
val wait : t -> unit
