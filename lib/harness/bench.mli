(** The bench tool's data format and timing policy: every
    [BENCH_*.json] file is a host record and a list of {!row}s written
    by {!write}, and every timed row is sampled by {!run}. *)

(** What a row measures: the suite that wrote it, the program, the
    engine tag (["seq/c"] is the sequential engine on compiled clause
    code), its agent or domain count, and the settings that tell the
    suite's rows apart (["grain=2"], ["clients=4"], ...). *)
type key = {
  suite : string;
  benchmark : string;
  engine : string;
  domains : int;
  config : string;
}

(** The median and interquartile range of a metric's [n] samples. *)
type row = { key : key; metric : string; median : float; iqr : float; n : int }

(** [timed key metric samples]: the median and IQR of [samples]
    (nearest rank), [n] their number.  [samples] must not be empty. *)
val timed : key -> string -> float array -> row

(** A counter's row: one reading ([n = 1], [iqr = 0]) when every value
    is the same, as for a deterministic count, else as {!timed}.
    [values] must not be empty. *)
val count : key -> string -> float array -> row

(** [run key f metrics] calls [f] at most 31 times, and stops early,
    after at least 5 calls, once 1 s has passed since the first.  Each
    call's [wall_ns] is followed by perfbench's calibration loop
    ([Stat.calibrate_ns]) and scaled to full host speed by the slower
    loop reading around it ([Stat.at_full_speed], exponent 1.0).
    Returns the ["wall_ms"] row of those times, then one {!count} row
    per [(metric, g)] over [g] of every call's result. *)
val run :
  key ->
  (unit -> Ace_core.Engine.result) ->
  (string * (Ace_core.Engine.result -> float)) list ->
  row list

(** Processors listed in [/proc/cpuinfo], else
    [Domain.recommended_domain_count ()]. *)
val cores : unit -> int

(** Writes [{"host": {cores, ocaml, git_rev}, "rows": [...]}], one row a
    line, each with the nine fields [suite], [benchmark], [engine],
    [domains], [config], [metric], [median], [iqr] and [n]; [git_rev]
    is [git describe --always --dirty] in the current directory (the
    commit, suffixed [-dirty] when the tree has uncommitted changes), or
    ["unknown"] outside a checkout.  Prints one ["wrote"] line. *)
val write : string -> row list -> unit

(** The rows of a file {!write} wrote; [[]] when the file is missing or
    holds no such rows. *)
val read : string -> row list

(** One line per key, one column per metric: a counter's value, or a
    timed row's median, IQR and sample count. *)
val pp : Format.formatter -> row list -> unit
