(** Structural execution counters collected by the engines. *)

type t = {
  mutable unify_steps : int;
  mutable code_instrs : int;
      (** compiled clause-code instructions executed (0 when
          interpreting) *)
  mutable env_allocs : int;
      (** heap environments allocated for compiled clause bodies; a
          last-call-optimized recursion runs entirely in the reusable
          scratch frame and keeps this at 0 *)
  mutable clause_tries : int;
  mutable builtin_calls : int;
  mutable trail_pushes : int;
      (** bindings recorded on the trail; on the compiled sequential
          machine (seq/c) only those a choice point, or the mark of a
          condition or negation, can undo (conditional trailing), so a
          determinate run records none *)
  mutable untrails : int;
  mutable cp_allocs : int;
  mutable cp_updates : int;
  mutable backtracks : int;
  mutable bt_nodes_visited : int;
  mutable frames : int;
  mutable slots : int;
  mutable input_markers : int;
  mutable end_markers : int;
  mutable markers_avoided : int;
  mutable frames_avoided : int;
  mutable max_frame_nesting : int;
  mutable kills : int;
  mutable copies : int;
  mutable copied_cells : int;
  mutable or_scans : int;
  mutable publish_skipped_small : int;
      (** publications declined because every candidate node had fewer
          untried alternatives than the configured grain *)
  mutable steals : int;
  mutable polls : int;
  mutable task_switches : int;
  mutable lpco_hits : int;
  mutable lao_hits : int;
  mutable spo_hits : int;
  mutable pdo_hits : int;
  mutable seq_hits : int;
  mutable table_subgoals : int;
      (** tabling: subgoal-table entries created (one per variant class
          of tabled calls) *)
  mutable table_answers : int;
      (** tabling: distinct answers inserted into answer tables *)
  mutable table_answer_hits : int;
      (** tabling: tabled calls served straight from a complete table *)
  mutable table_variant_hits : int;
      (** tabling: calls that mapped onto an existing subgoal entry *)
  mutable table_suspends : int;
      (** tabling: consumers of an incomplete table — saved consumers
          (the suspension events of the SLG protocol) plus the
          fallback's plain reads under control constructs *)
  mutable table_resumes : int;
      (** tabling: the fallback's naive re-passes of a region, needed
          only when a consumer under a cut, [->], [\+] or [call/1]
          missed an answer (resuming a saved consumer is not counted) *)
  mutable solutions : int;
  mutable stack_words : int;
  mutable minor_words : int;
      (** GC minor-heap words allocated during the solve (measured as a
          [Gc.minor_words] delta by the {!Ace_core.Engine} facade; on the
          multi-domain engine only the joining domain's counter is
          sampled, so treat multi-domain values as a lower bound) *)
  mutable promoted_words : int;
      (** GC words promoted to the major heap during the solve (same
          measurement caveats as [minor_words]) *)
}

val create : unit -> t

(** Accumulates [b] into [into] (max for nesting depth, sum elsewhere).

    Ownership: a [Stats.t] is a single-writer record.  Each engine worker
    (domain or simulated agent) updates its own private record — see
    {!Ace_obs.Metrics} — and [merge_into] may only fold worker records
    into a run total on the joining thread, after every worker has
    finished (for the multicore engine: after [Domain.join]).  Merging
    while a worker is still writing its record is a data race. *)
val merge_into : into:t -> t -> unit

(** A reading of the calling domain's GC allocation counters. *)
type alloc_mark

val alloc_mark : unit -> alloc_mark

(** [add_alloc_since t mark] adds the calling domain's allocation since
    [mark] (taken on the same domain) to [t]'s [minor_words], exact to
    the word, and [promoted_words].  The counters are per domain, so a
    multi-domain run takes one mark per worker domain. *)
val add_alloc_since : t -> alloc_mark -> unit

(** Field names and values, for tabular output.  Stable order; covers every
    counter of the record. *)
val fields : t -> (string * int) list

(** Rebuilds a record from [fields]-style pairs (unknown names are
    ignored, so dumps from newer builds still load). *)
val of_fields : (string * int) list -> t

(** The counters as one flat JSON object (the machine-readable twin of
    {!pp}; parse with [Ace_obs.Json] or any JSON reader). *)
val to_json : t -> string

(** Prints one [name value] line per non-zero counter; [~verbose:true]
    prints zero-valued counters too, so "this optimization never fired"
    regressions stay visible. *)
val pp : ?verbose:bool -> Format.formatter -> t -> unit
