(** Per-predicate profiler: classic 4-port counters (call / exit / redo /
    fail), exclusive cost attribution, caller→callee call-graph edges and
    a bounded-depth calling-context tree for folded-stack (flamegraph)
    output — opt-in, sharded per agent/domain like {!Trace} and
    {!Metrics}.

    Discipline: one {!shard} per execution context (simulated agent or
    domain), single-writer, registered against the profile at creation
    and merged read-only by the export views after the run.  The
    {!null} shard makes every hook a load and a branch when profiling is
    off, so engines call the hooks unconditionally.

    Port mapping onto the kernel protocol (see DESIGN.md § Profiling):
    clause selection ({!Ace_core} [Kernel.select]/[select_args]) is
    {e call}; compiled-frame completion ([Ex_done] / an inline
    scratch-body completion) is {e exit}; a choice-point retry is
    {e redo}; candidate exhaustion is {e fail}.  Builtins record a
    call+exit (or call+fail) pair without entering the ancestor stack.

    Cost attribution is differential: each shard samples its engine's
    {!Ace_machine.Stats} shard, virtual/wall clock and the GC minor-word
    counter at every port event and charges the delta to the predicate
    on top of the ancestor stack — exclusive cost, so a builtin's work
    lands on its caller.  On the multicore engine minor words are
    process-wide and therefore approximate per domain. *)

module Symbol := Ace_term.Symbol
module Stats := Ace_machine.Stats

type t
(** A profile: the run-wide registry of per-context shards. *)

type shard
(** One execution context's single-writer slice of the profile. *)

val create : unit -> t
(** A fresh enabled profile. *)

val disabled : t
(** The shared disabled profile: {!shard} returns {!null}. *)

val enabled : t -> bool

val null : shard
(** The shared disabled shard; every hook on it is a load and a
    branch. *)

val live : shard -> bool
(** False exactly on {!null} — callers guard hook-argument computation
    (key packing, cell counts) behind this. *)

val shard :
  t -> dom:int -> ?stats:Stats.t -> ?clock:(unit -> int) -> unit -> shard
(** Registers (and returns) the shard for context [dom].  [stats] is the
    engine's per-context stat shard, sampled differentially for cost
    attribution; [clock] the engine's cycle/nanosecond clock (defaults
    to a constant — cost attribution then carries no time axis). *)

(** {2 Predicate keys}

    A predicate is identified by a packed [symbol-id * 256 + arity]
    integer, so the hot-path hooks hash machine integers only. *)

val key : Symbol.t -> int -> int

val key_of_term : Ace_term.Term.t -> int
(** The key of a goal term's principal functor ([f/0] for atoms;
    a dedicated [?/0] key for unbound or numeric goals). *)

val key_name : int -> string
(** ["name/arity"], resolving the symbol table. *)

(** {2 Port hooks} (single-writer; no-ops on a disabled shard) *)

val call : shard -> int -> unit
(** Call port: records the call-graph edge from the current stack top
    and descends the ancestor stack (depth-capped; beyond the cap the
    frame is counted as truncated instead of pushed). *)

val exit_key : shard -> int -> unit
(** Exit port for a known predicate: pops the stack through its
    shallowest occurrence (tolerates LCO frames that never exited). *)

val exit_top : shard -> unit
(** Exit port for the predicate on top of the stack (compiled-frame
    completion: the engine knows a frame finished, not which
    predicate — the stack does). *)

val redo : shard -> int -> unit
(** Redo port: truncates the stack back to the retried predicate (or
    re-roots at it — backtracking landed on a context this shard never
    saw, e.g. a stolen task). *)

val fail : shard -> int -> unit

val builtin : shard -> int -> ok:bool -> unit
(** A builtin call: call+exit or call+fail, edge from the stack top, no
    stack push. *)

(** {2 Parallel attribution} *)

val spawned : shard -> int -> unit
(** [n] parallel tasks published out of the current predicate. *)

val stole : shard -> int -> unit
(** A steal landed on (a task/slot of) the keyed predicate. *)

val copied : shard -> int -> unit
(** [cells] copied while publishing/stealing under the current
    predicate. *)

val slots : shard -> int -> unit
(** [n] parcall slots allocated under the current predicate. *)

(** {2 Views} (read the shards after the run; merged on the fly) *)

type row = {
  r_name : string;
  r_calls : int;
  r_exits : int;
  r_redos : int;
  r_fails : int;
  r_instrs : int;  (** compiled instructions, exclusive *)
  r_tries : int;  (** clause tries, exclusive *)
  r_envs : int;  (** heap environments, exclusive *)
  r_trail : int;  (** trail pushes + untrails, exclusive *)
  r_cycles : int;  (** clock delta (abstract cycles or ns), exclusive *)
  r_minor : int;  (** GC minor words, exclusive *)
  r_tasks : int;
  r_steals : int;
  r_copied : int;
  r_slots : int;
}

val rows : t -> row list
(** All predicates (builtins included, pseudo-roots excluded), ranked by
    exclusive cycles, then instructions, then calls. *)

val top_hotspot : t -> row option
(** The highest-ranked user predicate (builtins and [$]-pseudo
    predicates excluded) — what `bench profile` asserts against. *)

val report : ?limit:int -> t -> string
(** The ranked hotspot table ([--profile]). *)

val to_json : t -> Json.t
(** [{"predicates": [...], "edges": [...], "domains": n,
    "truncated": n}] ([--profile-json]). *)

val to_folded : t -> string
(** Folded stacks ([--profile-folded]): one
    ["root;p/1;q/2 <cycles>"] line per calling-context path with
    positive exclusive cost, flamegraph.pl / speedscope syntax. *)
