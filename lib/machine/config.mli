(** Engine configuration: agent count and the four optimization switches
    (LPCO, LAO, SPO, PDO). *)

type t = {
  agents : int;
  lpco : bool;
  lao : bool;
  spo : bool;
  pdo : bool;
  par_and : bool;
      (** multicore engine only: run ['&'] conjunctions in parallel
          (parcall frames + cross-product join) alongside the
          or-parallel work stealing *)
  seq_threshold : int;
      (** granularity control: sequentialize parallel conjunctions whose
          estimated work is below this many term cells (0 = off) *)
  grain : int;
      (** or-parallel granularity: publish a choice point only if it still
          has at least this many untried alternatives (1 = no control) *)
  compile : bool;
      (** sequential engine only: run clauses as flat instruction code
          through the switch-on-term dispatch tree; off by default (the
          interpreted oracle reference), on in ace_run and ace_serve.
          The simulated engines always interpret and the domains engine
          always runs compiled code; neither reads this field. *)
  table_max_answers : int;
      (** tabling guard: abort with an engine error when a tabled subgoal
          accumulates more than this many distinct answers (0 = off) *)
  cost : Cost.t;
  max_solutions : int option;
}

(** One agent, all optimizations off, default cost model, all solutions. *)
val default : t

val unoptimized : ?agents:int -> unit -> t

val all_optimizations : ?agents:int -> unit -> t

(** [Error (field, lo)] names the first field below its lower bound
    [lo], e.g. [Error ("grain", 1)].  [max_solutions = Some 0] is valid:
    no solutions, and no search. *)
val check : t -> (unit, string * int) result

(** {!check}, returning the configuration; raises [Invalid_argument
    "Config: <field> must be >= <lo>"] otherwise.  [Engine.run] calls
    it once for all four engines. *)
val validate : t -> t

val pp : Format.formatter -> t -> unit
