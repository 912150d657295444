(** Unnumbered evaluation claims of the paper: X1 (1-processor parallel
    overhead, §1/§2.3/§5) and X2 (LPCO control-stack savings, §3.1);
    the seq_core benchmark list and the bench tool's pinned-file gates. *)

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

(** The seq_core suite's programs (also perfbench's paper programs). *)
val seq_core_benchmarks : string list

(** {1 Pinned files}

    The bench tool's seq_core and alloc gates compare a run with a
    pinned file, one row a line.  Every non-blank line must name a row
    that ran: a pinned row the run lacks, or a line that does not parse,
    is reported like drift.  A row with no pinned line passes (a
    benchmark added since the recording). *)

(** Renders [((benchmark, engine), (solutions, digest))] entries in the
    "benchmark engine solutions digest" line format of
    [bench/seq_core_expected.txt]; the digest is {!Ace_check.Canon.digest}
    of a run's solutions. *)
val expected_of_digests : ((string * string) * (int * string)) list -> string

(** Compares digest entries with a pinned file of that format; returns
    the divergence messages, empty when every pinned line matches every
    entry of its row. *)
val check_seq_core :
  expected:string -> ((string * string) * (int * string)) list -> string list

(** Renders the ["words_per_solution"] rows in the
    "benchmark engine words_per_solution" line format of
    [bench/seq_core_alloc_expected.txt]. *)
val alloc_expected_of_rows : Bench.row list -> string

(** Compares the ["words_per_solution"] rows with pinned baselines; a row
    regresses when it exceeds its pin by more than 10% plus one word.
    Returns the messages, empty when the gate passes. *)
val check_alloc : expected:string -> Bench.row list -> string list
