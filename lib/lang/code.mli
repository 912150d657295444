(** The clause compiler: flat get/unify head code plus register-machine
    body code.

    Compiled at assert/consult time (cached on the clause via the
    extensible {!Clause.code} slot; {!Database.freeze} precompiles every
    clause so parallel workers only read).  The head code matches the
    goal arguments in place — no renamed head copy, no fresh variables
    for head occurrences — and the body code loads argument registers
    with [put_*] instructions and dispatches [call]/[execute]/[builtin]
    operations without materializing intermediate goal terms; control
    constructs and parallel conjunctions fall back to term-building
    ([O_goal]/[O_par]) and the engines' interpreted control machinery.
    All caller-visible bindings are trailed exactly as the interpreter's,
    so choice points, MUSE copies and parcall unwinding are unaffected. *)

(** Head instructions.  [Get_*] match one goal argument; [U_*] run
    against the cells of the nearest enclosing [*_struct] (closed by
    [U_pop]), switching to write mode when the structure position was an
    unbound variable. *)
type instr =
  | Get_atom of Ace_term.Symbol.t * int
  | Get_int of int * int
  | Get_var of int * int  (** frame slot <- goal argument (first occurrence) *)
  | Get_val of int * int  (** general unify: frame slot vs goal argument *)
  | Get_struct of Ace_term.Symbol.t * int * int  (** functor, arity, argument *)
  | Get_ground of Ace_term.Term.t * int
      (** ground argument: one general unify against the shared template *)
  | U_atom of Ace_term.Symbol.t
  | U_int of int
  | U_var of int
  | U_val of int
  | U_void
      (** single-occurrence variable: matches anything, stores nothing *)
  | U_struct of Ace_term.Symbol.t * int
  | U_ground of Ace_term.Term.t
  | U_pop

(** Body put code; [P_const] shares the immutable template subterm,
    [P_fresh] is a variable's first occurrence (the fresh variable is
    stored into its slot), [P_val] reads a slot, [P_void] is a
    single-occurrence variable. *)
type put =
  | P_const of Ace_term.Term.t
  | P_fresh of int
  | P_val of int
  | P_void
  | P_struct of Ace_term.Symbol.t * put array

(** Parallel-conjunction branches (instantiated wholesale into a
    {!Clause.body} when the parcall is reached). *)
type bitem =
  | B_call of put
  | B_par of bitem list list

(** A body step's operation, consuming the registers loaded by its
    puts. *)
type op =
  | O_builtin of Ace_term.Symbol.t  (** dispatch straight from registers *)
  | O_call of Ace_term.Symbol.t * int
      (** user call; the [int] is the number of frame slots still live
          after it (environment trimming) *)
  | O_execute of Ace_term.Symbol.t
      (** last user call: the frame is dead, no continuation is stacked
          (last-call optimization) *)
  | O_goal of put
      (** control construct (cut, ';', '->', naf, call/1, solution/1) or
          meta-variable: build the term, let the engine dispatch it *)
  | O_par of bitem list list  (** parallel conjunction *)

type step = { s_puts : put array; s_op : op }

type t = {
  c_head : instr array;
  c_body : step array;
  c_nvars : int;  (** frame slots after void elimination *)
  c_scratch : bool;
      (** body is all builtins plus at most a final execute — the whole
          try runs on the scratch frame, no heap environment *)
}

type Clause.code += Compiled of t

(** The builtin membership test, registered by [Ace_core.Builtins] at
    startup (this library sits below the builtin table).  The compiler
    classifies body goals through it; the default rejects everything. *)
val builtin_hook : (Ace_term.Symbol.t -> int -> bool) ref

(** Compiles a clause template (no caching). *)
val compile : Clause.t -> t

(** Cached compilation through the clause's {!Clause.code} slot. *)
val of_clause : Clause.t -> t

(** A fresh heap environment frame for one clause instance: [c_nvars]
    slots holding the {!unset} sentinel. *)
val frame : t -> Ace_term.Term.t array

(** The frame sentinel (compare with [==]). *)
val unset : Ace_term.Term.t

val no_args : Ace_term.Term.t array

(** True for a dereferenced goal that is a control construct ([!], [,],
    [&], [;], [->], [\+], [call/1] or the ['$solution'/1] sentinel)
    rather than a predicate call. *)
val is_control : Ace_term.Term.t -> bool

(** Per-agent execution scratch: the instruction/unify-step counters, a
    frame buffer reused across clause tries and the argument-register
    file.  Each engine allocates one per worker or simulated agent. *)
type scratch = {
  mutable s_instrs : int;
  s_steps : int ref;  (** threads into the embedded general unifier *)
  mutable s_buf : Ace_term.Term.t array;
  mutable s_regs : Ace_term.Term.t array;  (** the argument registers *)
}

val create_scratch : unit -> scratch

(** A frame for [code] carved out of the scratch buffer, slots reset to
    {!unset}.  Invalidated by the next [scratch_frame] call on this
    agent — consume it (run the head, run or hand off the body) before
    the next clause try. *)
val scratch_frame : scratch -> t -> Ace_term.Term.t array

(** [run_head code ~trail ~sc frame args] executes the head code against
    the goal arguments; [true] on match.  [args] may be longer than the
    head's arity (a register file): the extra cells are ignored.  Adds
    executed instructions to [sc.s_instrs] and the nodes visited by
    embedded general unifications to [sc.s_steps] (the caller resets
    them).  Bindings stay trailed on failure — the caller undoes to its
    own mark (same contract as a failed {!Ace_term.Unify.unify}). *)
val run_head :
  t ->
  trail:Ace_term.Trail.t ->
  sc:scratch ->
  Ace_term.Term.t array ->
  Ace_term.Term.t array ->
  bool

(** Builds one register (or goal subterm) from the frame; [P_fresh]
    publishes its fresh variable in the slot. *)
val build_put : Ace_term.Term.t array -> put -> Ace_term.Term.t

(** Loads a step's argument registers into [sc.s_regs] (growing it as
    needed) and returns the register file.  Valid until the next
    [load_regs] on this scratch; put trees never read the registers, so
    an [O_execute] may reload in place over its caller's arguments. *)
val load_regs :
  scratch -> Ace_term.Term.t array -> put array -> Ace_term.Term.t array

(** Instantiates parallel-conjunction branches against the frame. *)
val inst_bbody : Ace_term.Term.t array -> bitem list -> Clause.body

(** Seeded structure-preserving mutation applied to every clause
    compiled while set ([Some k] rewrites the point at [k mod points];
    body steps index before head instructions).  CI's compile-smoke test
    sets this and requires the differential oracle to fail.  Never set
    outside tests. *)
val mutation : int option ref

(** Human-readable instruction listing (golden tests). *)
val pp_listing : Format.formatter -> t -> unit

val listing : t -> string
