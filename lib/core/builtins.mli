(** Deterministic builtin predicates shared by the engines.  Control
    constructs (cut, [\+], [;], [->]) are handled by each engine, not
    here. *)

type outcome =
  | Ok
  | Fail
  | Not_builtin

type ctx = {
  trail : Ace_term.Trail.t;
  steps : int ref;        (** unification steps, reset/read by the engine *)
  arith_nodes : int ref;  (** arithmetic nodes evaluated *)
  output : Buffer.t option;
}

val make_ctx : ?output:Buffer.t -> trail:Ace_term.Trail.t -> unit -> ctx

(** Every builtin, as [(name, arity)]. *)
val names : (string * int) list

val is_builtin : string -> int -> bool

(** Runs [goal] if it is a builtin.  May bind variables (trailed); raises
    {!Errors.Engine_error} on type errors. *)
val call : ctx -> Ace_term.Term.t -> outcome

(** Runs the builtin [sym/arity] with its arguments spread in a register
    file (which may be longer than [arity] — no goal term, no copy).
    [Not_builtin] when no such builtin is registered, which on the
    compiled path only happens under seeded code mutation. *)
val call_args :
  ctx -> Ace_term.Symbol.t -> int -> Ace_term.Term.t array -> outcome

(** [is/2] and the arithmetic comparisons evaluated directly over a
    compiled body step's put descriptors against the frame — no
    expression term is materialized, and nothing but [is/2]'s integer
    result is allocated.  [Not_builtin] means the caller must load the
    registers and go through {!call_args} (non-arithmetic shapes keep the
    generic error behavior). *)
val call_put_args :
  ctx ->
  Ace_term.Term.t array ->
  Ace_lang.Code.put array ->
  Ace_term.Symbol.t ->
  int ->
  outcome
