(** Fuzz driver over the generator + differential oracle + shrinker. *)

type failure = {
  f_index : int;
  f_seed : int;
      (** the case seed — [Gen_prog.generate ~seed:f_seed] replays it *)
  f_label : string;  (** which engine/config run disagreed *)
  f_chaos : string;  (** chaos spec of that run, or ["off"] *)
  f_expected : Oracle.outcome;
  f_got : Oracle.outcome;
  f_case : Gen_prog.t;
  f_shrunk : Gen_prog.t;  (** locally minimal failing variant *)
}

type report = {
  r_count : int;
  r_agreed : int;
  r_skipped : int;
  r_runs : int;
  r_failures : failure list;
}

(** [run ~count ~seed ~schedules ()] checks [count] cases from consecutive
    seeds starting at [seed].  [mutation] injects a semantics bug into one
    engine's program copy (smoke test that the oracle catches real bugs).
    [log] receives progress lines. *)
val run :
  ?count:int ->
  ?seed:int ->
  ?schedules:int ->
  ?mutation:Oracle.mutation ->
  ?extra_chaos:Ace_sched.Chaos.t ->
  ?log:(string -> unit) ->
  unit ->
  report

val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit

(** No failures (skips are fine). *)
val ok : report -> bool
