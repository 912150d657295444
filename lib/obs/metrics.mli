(** Per-domain metric shards: one private {!Ace_machine.Stats.t} per
    worker plus distribution counters (histograms) and busy/idle
    accounting.

    Single-writer discipline: shard [i] may only be written by worker [i]
    while the run is live; the aggregating readers ({!total},
    {!utilization}, {!to_json}) must only run after the workers joined. *)

module Stats = Ace_machine.Stats

(** Power-of-two histogram: bucket [b] counts values in [2^(b-1), 2^b)
    (bucket 0 counts values <= 0).  [h_buckets] is empty until the first
    sample; read the counts through {!hist_buckets}. *)
type hist = {
  mutable h_n : int;
  mutable h_sum : int;
  mutable h_max : int;
  mutable h_buckets : int array;
}

val hist_create : unit -> hist

val hist_add : hist -> int -> unit

val hist_mean : hist -> float

val hist_merge_into : into:hist -> hist -> unit

(** Non-empty buckets as (inclusive upper bound, count) pairs, ascending. *)
val hist_buckets : hist -> (int * int) list

type shard = {
  s_dom : int;
  s_stats : Stats.t;
  s_copy_cells : hist;   (** cells per environment copy *)
  s_task_ns : hist;      (** task durations (par engine, wall ns) *)
  s_steal_tries : hist;  (** poll iterations per successful steal *)
  mutable s_busy_ns : int;
  mutable s_idle_ns : int;
}

type t

(** Fresh shards, one per domain. *)
val create : domains:int -> t

(** Wraps existing per-agent records (no copy: shard [i]'s stats IS the
    given record); distribution counters start empty. *)
val of_stats_array : Stats.t array -> t

(** Single-shard wrapper for the sequential engine. *)
val of_stats : Stats.t -> t

val domains : t -> int

val shard : t -> int -> shard

val stats : t -> int -> Stats.t

val per_domain : t -> Stats.t array

(** Merged run total (a fresh record; never aliases a shard).  Only
    meaningful after the workers joined. *)
val total : t -> Stats.t

type util = {
  u_dom : int;
  u_busy_ns : int;
  u_idle_ns : int;
  u_busy_frac : float;  (** busy / (busy + idle); 0 when unmeasured *)
  u_tasks : int;
  u_steals : int;
  u_copies : int;
  u_solutions : int;
}

val utilization : t -> util list

val pp_utilization : Format.formatter -> t -> unit

val stats_to_json : Stats.t -> Json.t

val to_json : t -> Json.t
