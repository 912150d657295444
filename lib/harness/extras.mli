(** Unnumbered evaluation claims of the paper: X1 (1-processor parallel
    overhead, §1/§2.3/§5) and X2 (LPCO control-stack savings, §3.1). *)

type overhead_row = {
  o_label : string;
  seq_time : int;
  unopt_time : int;
  opt_time : int;
  gc_time : int;  (** all optimizations plus granularity control *)
  unopt_overhead : float;
  opt_overhead : float;
  gc_overhead : float;
}

(** Physical processor count of this host (from [/proc/cpuinfo] where
    available, else the runtime's recommendation). *)
val host_cores : unit -> int

(** [Domain.recommended_domain_count ()]. *)
val recommended_domains : unit -> int

(** The standard host object embedded in every BENCH_*.json: core
    count, recommended domains and the OCaml version. *)
val host_json : unit -> Ace_obs.Json.t

(** Prints a warning on stderr when a sweep requests more domains than
    the host has cores. *)
val warn_domains : requested:int -> unit

val overhead_benchmarks : string list

val run_overhead :
  ?benchmarks:string list ->
  ?size_of:(Ace_benchmarks.Programs.t -> int) ->
  unit ->
  overhead_row list

val pp_overhead : Format.formatter -> overhead_row list -> unit

type memory_row = {
  m_label : string;
  unopt_words : int;
  opt_words : int;
  saving : float;
}

val run_memory :
  ?benchmarks:string list -> ?agents:int -> unit -> memory_row list

val pp_memory : Format.formatter -> memory_row list -> unit

(** One wall-clock measurement of the hardware or-parallel engine. *)
type par_or_row = {
  p_label : string;
  p_domains : int;
  p_grain : int;        (** publish only nodes with >= this many alternatives *)
  p_wall_ms : float;    (** best of the repeated runs *)
  p_solutions : int;
  p_speedup : float;    (** vs the 1-domain row of the same benchmark *)
  p_matches_seq : bool; (** solution set equals the sequential engine's *)
  p_steals : int;       (** total successful steals in the best run *)
  p_busy_frac : float;  (** mean per-domain busy fraction of the best run *)
  p_metrics : Ace_obs.Metrics.t;
      (** per-domain shards of the best run (busy/idle, histograms) *)
}

val par_or_benchmarks : string list

(** Runs the or-parallel benchmarks on {!Ace_core.Par_or_engine}: one
    1-domain baseline per benchmark, then every multi-domain count in
    [domains] (default [[1; 2; 4]]) crossed with every publish grain in
    [grains] (default [[1; 2; 4]]), checking every run's solution set
    against the sequential engine; reports the best wall time of [repeat]
    runs (default 3). *)
val run_par_or :
  ?benchmarks:string list ->
  ?domains:int list ->
  ?grains:int list ->
  ?repeat:int ->
  ?size_of:(Ace_benchmarks.Programs.t -> int) ->
  unit ->
  par_or_row list

val pp_par_or : Format.formatter -> par_or_row list -> unit

(** Serializes rows for [BENCH_par_or.json]. *)
val par_or_json : par_or_row list -> string

(** One wall-clock measurement of the hardware engine with and-parallel
    execution ([config.par_and]). *)
type par_and_row = {
  a_label : string;
  a_domains : int;
  a_wall_ms : float;    (** best of the repeated runs *)
  a_solutions : int;
  a_speedup : float;    (** vs the 1-domain row of the same benchmark *)
  a_matches_seq : bool; (** solution multiset equals the sequential engine's *)
  a_frames : int;       (** parcall frames built in the best run *)
  a_slots : int;
  a_spo_hits : int;     (** frames procrastinated away (SPO) *)
  a_pdo_hits : int;     (** contiguous-slot claims (PDO) *)
  a_steals : int;
  a_metrics : Ace_obs.Metrics.t;
}

val par_and_benchmarks : string list

(** Runs the and-parallel benchmarks on {!Ace_core.Par_or_engine} with
    [par_and] at every domain count in [domains] (default [[1; 2; 4]]),
    checking every run's solution multiset against the sequential engine;
    reports the best wall time of [repeat] runs (default 3).  [spo]
    defaults to [false] so every independent parcall builds a frame. *)
val run_par_and :
  ?benchmarks:string list ->
  ?domains:int list ->
  ?repeat:int ->
  ?spo:bool ->
  ?size_of:(Ace_benchmarks.Programs.t -> int) ->
  unit ->
  par_and_row list

val pp_par_and : Format.formatter -> par_and_row list -> unit

(** Serializes rows for [BENCH_par_and.json]. *)
val par_and_json : par_and_row list -> string

(** One wall-clock measurement of the engine hot path (consult + solve). *)
type seq_core_row = {
  c_label : string;
  c_engine : string;
      (** "seq" | "seq/c" (the sequential engine on compiled clause
          code) | "and" | "or" | "par" *)
  c_wall_ms : float;    (** best of the repeated runs *)
  c_solutions : int;
  c_digest : string;    (** MD5 of the sorted canonical solution set *)
  c_stats : Ace_machine.Stats.t;  (** counters of the best run *)
}

val seq_core_benchmarks : string list

(** Runs every benchmark on every engine at one agent/domain, in each of
    the engine's execution modes ({!Ace_core.Engine.compile_modes});
    reports the best wall time of [repeat] runs (default 5) and a digest
    of the alpha-canonical solution set for semantic-drift checks. *)
val run_seq_core :
  ?benchmarks:string list ->
  ?engines:Ace_core.Engine.kind list ->
  ?repeat:int ->
  ?size_of:(Ace_benchmarks.Programs.t -> int) ->
  unit ->
  seq_core_row list

(** Geometric-mean wall-clock speedup of the compiled ("tag/c") rows over
    their interpreted counterparts, as [(engine_tag, geomean)] pairs (the
    sequential engine is the only one with both modes). *)
val seq_core_speedups : seq_core_row list -> (string * float) list

val pp_seq_core : Format.formatter -> seq_core_row list -> unit

(** Serializes rows for [BENCH_seq_core.json]. *)
val seq_core_json : seq_core_row list -> string

(** Renders rows in the "benchmark engine solutions digest" line format of
    [bench/seq_core_expected.txt]. *)
val expected_of_rows : seq_core_row list -> string

(** Compares rows against a seed-recorded expected file (one
    "benchmark engine solutions digest" line per row); returns the list of
    divergence messages, empty when every solution set matches. *)
val check_seq_core : expected:string -> seq_core_row list -> string list

(** GC minor words allocated per solution in a row (sampled into the
    row's stats by the {!Ace_core.Engine} facade). *)
val words_per_solution : seq_core_row -> float

(** For a compiled ("tag/c") row, the interpreted counterpart's
    minor-words/solution divided by the compiled row's ([> 1.] = the
    compiled path allocates less); [None] for interpreted rows. *)
val alloc_ratio : seq_core_row list -> seq_core_row -> float option

(** Renders rows in the "benchmark engine words_per_solution" line format
    of [bench/seq_core_alloc_expected.txt]. *)
val alloc_expected_of_rows : seq_core_row list -> string

(** Compares rows against pinned allocation baselines; a row regresses
    when its minor-words/solution exceeds the pinned value by more than
    [tolerance] (relative, default 0.10) plus one word of slack.
    Returns the regression messages, empty when the gate passes. *)
val check_alloc :
  ?tolerance:float -> expected:string -> seq_core_row list -> string list
