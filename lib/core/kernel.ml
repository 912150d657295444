(* The shared solver kernel: the step (builtin dispatch, tabled routing,
   clause selection, the try of a lone candidate), trail discipline, goal
   classification and the schema-optimization decisions, factored out of
   the four engines.  See kernel.mli for the architecture notes. *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol
module Trail = Ace_term.Trail
module Unify = Ace_term.Unify
module Clause = Ace_lang.Clause
module Code = Ace_lang.Code
module Database = Ace_lang.Database
module Store = Ace_lang.Store
module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Prof = Ace_obs.Prof
module Trace = Ace_obs.Trace
module Table = Ace_lang.Table

(* The result of a run started at [t0]: [wall_ns] is measured now. *)
let finish (opts : Run.opts) ~t0 ~cycles solutions stats metrics :
    Run.result =
  {
    solutions;
    stats;
    metrics;
    cycles;
    wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
    cancelled = Cancel.fired opts.Run.cancel;
  }

(* The execution context every kernel operation is charged against:
   one per sequential machine, per Par_or worker domain and per
   simulated agent.  A concrete record rather than a functor argument:
   without flambda, every functor-argument access is an indirect call
   that is never inlined, several per clause try. *)
type clock =
  | Cycles
  | Wall
  | Ticks of Ace_sched.Sim.t

(* The sequential machine's continuation segment: body items still to
   run and the choice-point height a cut among them restores.  Defined
   here so that a saved tabled consumer can hold one. *)
type seg = { items : Clause.body; barrier : int }

(* An agent's SLG evaluation in progress (see the tabling section). *)
type tframe = {
  fr_entry : Table.entry;
  fr_depth : int;            (* position on the generator stack *)
  mutable fr_passes : int;
  mutable fr_consumers : consumer list;  (* saved consumers of the entry *)
  mutable fr_queued : bool;  (* on its region's queue *)
}

(* A read of [rd_entry]'s answers by index up to the live count, each
   unified with the call [rd_goal]. *)
and reader = {
  rd_entry : Table.entry;
  rd_goal : Term.t;
  mutable rd_next : int;       (* answers already returned *)
  mutable rd_fallback : bool;  (* an unsaved consumer's read *)
}

(* A saved consumer: [co_cont] derives answers of [co_owner]'s subgoal
   (instances of [co_answer]) from each answer its reader returns, once
   the bindings of its activation ([co_vars] := [co_vals], the
   private-trail segment since that activation began) are back in
   place. *)
and consumer = {
  co_reader : reader;
  co_cont : seg list;
  co_owner : tframe;
  co_answer : Term.t;
  co_vars : Term.var array;
  co_vals : Term.t option array;
}

(* A region under evaluation: the frames at or above its candidate
   leader.  Nested regions complete inside an enclosing one; a region
   that reaches below its candidate is handed to the enclosing one. *)
type tregion = {
  mutable rg_low : int;            (* shallowest on-stack frame consumed *)
  mutable rg_queue : tframe list;  (* frames with answers not yet returned *)
  mutable rg_fallback : (Table.entry * int) list;
    (* fallback reads: the entry and how many answers one returned *)
}

type evaluation = {
  tv_ctx : Builtins.ctx;     (* engine ctx rebased on the private trail *)
  tv_trail : Trail.t;
  mutable tv_frames : tframe list;        (* generator stack, newest first *)
  tv_on_stack : (int, tframe) Hashtbl.t;  (* entry id -> its frame *)
  mutable tv_cur : (tframe * Term.t) option;
    (* the frame whose activation runs, and that activation's answer *)
  mutable tv_base : int;                  (* trail mark where it began *)
  mutable tv_region : tregion;
}

(* A nondeterministic store call's untried alternatives: through an
   overlay, the session's clauses before the rows (what is left of
   [cu_rows.front]), the selected rows from position [cu_pos]
   (tombstoned ones skipped), then the session's clauses after them
   (of [cu_rows.back]). *)
type cursor = {
  cu_rows : Database.rows;
  cu_args : Term.t array; (* the call's arguments, outliving the registers *)
  cu_order : int array; (* the selection: positions up to [cu_hi] *)
  mutable cu_pos : int;
  cu_hi : int;
  mutable cu_front : Clause.t list;
  mutable cu_back : Clause.t list;
}

type agent = {
  name : string;
  cost : Cost.t;
  stats : Stats.t;
  sc : Code.scratch;
  mutable prof : Prof.shard;
  cancel : Cancel.t;
  clock : clock;
  mutable cycles : int;
  tbuf : Trace.buffer;
  db : Database.t;
  table : Table.t;
  compiled : bool;
  mutable goal : Term.t;
  mutable alts : Clause.t list;
  mutable callee : Symbol.t;
  mutable callee_arity : int;
  sel : Store.sel;
  mutable cursor : cursor;
  mutable tabling : evaluation option;
}

let no_cursor =
  {
    cu_rows =
      {
        Database.store =
          Store.create ~lock:(Mutex.create ()) Symbol.nil ~rows:0 [||];
        front = [];
        back = [];
        dead = [];
      };
    cu_args = [||];
    cu_order = Store.all_rows;
    cu_pos = 0;
    cu_hi = 0;
    cu_front = [];
    cu_back = [];
  }

let agent (opts : Run.opts) ~name ~clock ~cost ~stats ~db ~table ~compiled
    ~dom =
  let a =
    {
      name;
      cost;
      stats;
      sc = Code.create_scratch ();
      prof = Prof.null;
      cancel = opts.Run.cancel;
      clock;
      cycles = 0;
      tbuf = Trace.buffer opts.Run.trace ~dom;
      db;
      table;
      compiled;
      goal = Term.Atom Symbol.nil;
      alts = [];
      callee = Symbol.nil;
      callee_arity = 0;
      sel = Store.sel ();
      cursor = no_cursor;
      tabling = None;
    }
  in
  if Prof.enabled opts.Run.prof then
    (* registered by the run's calling domain, before any worker starts:
       the profile registry is never touched concurrently *)
    a.prof <-
      Prof.shard opts.Run.prof ~dom ~stats
        ~clock:(fun () ->
          match clock with
          | Cycles -> a.cycles
          | Wall -> Trace.now_ns a.tbuf
          | Ticks sim -> Ace_sched.Sim.now sim)
        ();
  a

(* Out of line, so that the inlined [charge] stays a load, a compare and
   an add on the sequential engine (and one more compare on Par_or,
   which drops its charges). *)
let[@inline never] tick n = Ace_sched.Sim.tick n

let[@inline] charge a n =
  if a.clock == Cycles then a.cycles <- a.cycles + n
  else if a.clock != Wall then tick n

let record a kind arg =
  match a.clock with
  | Cycles -> Trace.record_at a.tbuf ~ts:a.cycles kind arg
  | Wall -> Trace.record a.tbuf kind arg
  | Ticks sim -> Trace.record_at a.tbuf ~ts:(Ace_sched.Sim.now sim) kind arg

type cls =
  | Cut
  | Conj of Term.t
  | Amp of Term.t
  | Disj of Term.t * Term.t
  | Ite of Term.t * Term.t * Term.t
  | Naf of Term.t
  | Meta of Term.t
  | Sentinel of Term.t
  | Goal of Term.t

let classify g =
  match Term.deref g with
  | Term.Atom s when Symbol.equal s Symbol.cut -> Cut
  | Term.Struct (s, [| _; _ |]) as g' when Symbol.equal s Symbol.comma ->
    Conj g'
  | Term.Struct (s, [| _; _ |]) as g' when Symbol.equal s Symbol.amp -> Amp g'
  | Term.Struct (s, [| cond_then; else_ |]) when Symbol.equal s Symbol.semicolon
    -> (
    match Term.deref cond_then with
    | Term.Struct (s', [| cond; then_ |]) when Symbol.equal s' Symbol.arrow ->
      Ite (cond, then_, else_)
    | l -> Disj (l, else_))
  | Term.Struct (s, [| cond; then_ |]) when Symbol.equal s Symbol.arrow ->
    Ite (cond, then_, Term.Atom Symbol.fail)
  | Term.Struct (s, [| g' |]) when Symbol.equal s Symbol.naf -> Naf g'
  | Term.Struct (s, [| g' |]) when Symbol.equal s Symbol.call -> Meta g'
  | Term.Struct (s, [| g' |]) when Symbol.equal s Symbol.solution ->
    Sentinel g'
  | g' -> Goal g'

let sentinel_body goal =
  Clause.compile_body goal
  @ [ Clause.Call (Term.Struct (Symbol.solution, [| goal |])) ]

(* What a step (or one clause try) comes to.  [R_exec] is the last-call
   case: the clause's body ran to its final user call entirely on the
   scratch frame, the callee's arguments are loaded in the scratch
   registers, and no continuation was stacked — the engine steps the
   registers directly (a determinate recursion loops here in constant
   space, allocating nothing).  [R_exec] leaves the callee in the
   agent's [callee]/[callee_arity] fields, and [R_alts] its goal and
   candidates in [goal]/[alts], and [R_rows] its cursor in [cursor],
   rather than in a tuple: neither a last call nor a nondeterminate one
   allocates to reach the engine.  [R_answers] and [R_consume] reach
   only a generator's machine (see the tabling section). *)
type resolved =
  | R_fail
  | R_body of Clause.body
  | R_exec
  | R_alts
  | R_rows
  | R_control
  | R_answers of reader
  | R_consume of reader

(* Where {!exec_body} stopped: the next thing the engine must
   schedule.  Register-consuming cases ([Ex_call]/[Ex_exec]) have the
   callee's arguments loaded in the scratch registers. *)
type executed =
  | Ex_fail
  | Ex_done
  | Ex_call of Symbol.t * int * int * int
      (* callee, arity, pc after the call, frame slots still live *)
  | Ex_exec (* last call: the frame is dead; callee as for [R_exec] *)
  | Ex_goal of Term.t * int (* control construct (engine dispatch), next pc *)
  | Ex_par of Clause.body list * int (* parallel conjunction, next pc *)

let code_of_frame (xf : Clause.exec_frame) =
  match xf.Clause.xf_code with
  | Code.Compiled code -> code
  | _ -> assert false (* Exec frames are built from compiled clauses only *)

(* The continuation for resuming [xf] at [pc]: dropped entirely when the
   body is exhausted (the last-call generalization — no empty frames are
   ever stacked). *)
let exec_cont xf pc rest =
  if pc >= Array.length (code_of_frame xf).Code.c_body then rest
  else Clause.Exec { xf with Clause.xf_pc = pc } :: rest

(* Materializes a register call as an ordinary goal term — the slow
   path, taken only when clause selection leaves more than one candidate
   (the goal must outlive the scratch registers inside choice points). *)
let goal_of_regs sym arity (args : Term.t array) =
  if arity = 0 then Term.Atom sym else Term.Struct (sym, Term.prefix args arity)

(* Environment trimming: clears the dead suffix of a frame so the terms
   it holds become collectable.  Unsafe in general — the clears are not
   trailed — so callers must prove the frame private first (the
   sequential engine trims only when no choice point was pushed since
   clause entry; resuming at an earlier pc is then impossible). *)
let trim_env (xf : Clause.exec_frame) live =
  let env = xf.Clause.xf_env in
  for i = live to Array.length env - 1 do
    env.(i) <- Code.unset
  done

(* Builtin call+exit (or call+fail) on the profiler. *)
let prof_builtin psh k = function
  | Builtins.Ok -> Prof.builtin psh k ~ok:true
  | Builtins.Fail -> Prof.builtin psh k ~ok:false
  | Builtins.Not_builtin -> ()

let untrail a trail mark =
  let undone = Trail.undo_to trail mark in
  if undone > 0 then begin
    charge a (undone * a.cost.Cost.untrail);
    a.stats.Stats.untrails <- a.stats.Stats.untrails + undone
  end

(* Charges one head unification against [goal]; [mark] is the trail
   position to restore on failure. *)
let charged_unify a ~trail x y =
  let cost = a.cost and stats = a.stats in
  let steps = ref 0 in
  let mark = Trail.mark trail in
  let ok = Unify.unify ~trail ~steps x y in
  charge a (!steps * cost.Cost.unify_step);
  stats.Stats.unify_steps <- stats.Stats.unify_steps + !steps;
  let pushed = Trail.size trail - mark in
  charge a (pushed * cost.Cost.trail_push);
  stats.Stats.trail_pushes <- stats.Stats.trail_pushes + pushed;
  if not ok then untrail a trail mark;
  ok

(* Charging epilogue shared by every builtin entry point: one [builtin]
   charge plus the unify steps, arithmetic nodes and trail pushes the
   call performed (counters passed as plain ints so the hot path
   allocates nothing). *)
let builtin_epilogue a (ctx : Builtins.ctx) steps0 arith0 trail0 outcome =
  let cost = a.cost and stats = a.stats in
  let steps = !(ctx.Builtins.steps) - steps0 in
  let arith = !(ctx.Builtins.arith_nodes) - arith0 in
  let pushed = Int.max 0 (Trail.size ctx.Builtins.trail - trail0) in
  charge a cost.Cost.builtin;
  charge a ((steps * cost.Cost.unify_step) + (arith * cost.Cost.arith_op));
  charge a (pushed * cost.Cost.trail_push);
  stats.Stats.builtin_calls <- stats.Stats.builtin_calls + 1;
  stats.Stats.unify_steps <- stats.Stats.unify_steps + steps;
  stats.Stats.trail_pushes <- stats.Stats.trail_pushes + pushed;
  outcome

let call_builtin a (ctx : Builtins.ctx) goal =
  let steps0 = !(ctx.Builtins.steps)
  and arith0 = !(ctx.Builtins.arith_nodes) in
  let trail0 = Trail.size ctx.Builtins.trail in
  let outcome =
    builtin_epilogue a ctx steps0 arith0 trail0 (Builtins.call ctx goal)
  in
  if Prof.live a.prof then prof_builtin a.prof (Prof.key_of_term goal) outcome;
  outcome

(* A compiled body step's builtin: arithmetic ([is/2], comparisons)
   evaluates the put descriptors directly against the frame — no
   expression term — and anything else loads the register file and
   dispatches through the table.  [Not_builtin] implies the generic path
   ran, so the registers are loaded. *)
let call_builtin_step a (ctx : Builtins.ctx) sym frame (puts : Code.put array) =
  let steps0 = !(ctx.Builtins.steps)
  and arith0 = !(ctx.Builtins.arith_nodes) in
  let trail0 = Trail.size ctx.Builtins.trail in
  let arity = Array.length puts in
  let outcome =
    match Builtins.call_put_args ctx frame puts sym arity with
    | Builtins.Not_builtin ->
      Builtins.call_args ctx sym arity (Code.load_regs a.sc frame puts)
    | (Builtins.Ok | Builtins.Fail) as outcome -> outcome
  in
  let outcome = builtin_epilogue a ctx steps0 arith0 trail0 outcome in
  if Prof.live a.prof then prof_builtin a.prof (Prof.key sym arity) outcome;
  outcome

(* The interpreted clause try: a renamed head unified against the goal. *)
let try_head a ~trail goal clause =
  charge a a.cost.Cost.clause_try;
  a.stats.Stats.clause_tries <- a.stats.Stats.clause_tries + 1;
  let head, fresh = Clause.rename_head clause in
  if charged_unify a ~trail head goal then begin
    let body = Clause.rename_body clause fresh in
    if body = [] && Prof.live a.prof then
      Prof.exit_key a.prof (Prof.key_of_term goal);
    R_body body
  end
  else R_fail

(* Runs a scratch-eligible body (builtins plus at most a final execute)
   to completion against the scratch frame: nothing is stacked and no
   goal terms are built.  [R_fail] restores the trail to [mark] — the
   whole clause try failed as one unit, exactly as if the head had not
   matched (the builtins here are the determinate prefix of the body;
   running them before the engine stacks anything is observably
   equivalent and is where the choice points and environments die). *)
let rec run_scratch_body a ~ctx ~trail ~mark code frame pc =
  let body = code.Code.c_body in
  if pc >= Array.length body then R_body []
  else begin
    let step = body.(pc) in
    let nput = Array.length step.Code.s_puts in
    charge a ((nput + 1) * a.cost.Cost.code_instr);
    a.stats.Stats.code_instrs <- a.stats.Stats.code_instrs + nput + 1;
    match step.Code.s_op with
    | Code.O_builtin sym -> (
      match call_builtin_step a ctx sym frame step.Code.s_puts with
      | Builtins.Ok -> run_scratch_body a ~ctx ~trail ~mark code frame (pc + 1)
      | Builtins.Fail ->
        untrail a trail mark;
        R_fail
      | Builtins.Not_builtin ->
        (* seeded mutation retargeted the dispatch: hand the engine a goal
           term so it raises its ordinary existence error; the rest of the
           body escapes as an Exec over a private copy of the (otherwise
           reusable) scratch frame *)
        let rest =
          if pc + 1 >= Array.length body then []
          else
            [ Clause.Exec
                {
                  Clause.xf_code = Code.Compiled code;
                  xf_pc = pc + 1;
                  xf_env = Term.prefix frame code.Code.c_nvars;
                } ]
        in
        R_body (Clause.Call (goal_of_regs sym nput a.sc.Code.s_regs) :: rest))
    | Code.O_execute sym ->
      ignore (Code.load_regs a.sc frame step.Code.s_puts : Term.t array);
      a.callee <- sym;
      a.callee_arity <- nput;
      R_exec
    | Code.O_call _ | Code.O_goal _ | Code.O_par _ ->
      assert false (* excluded by [c_scratch] *)
  end

(* The compiled counterpart of [try_head]: runs the clause's flat
   instruction code directly against the caller's argument cells (no
   renamed head copy), charging one [code_instr] per executed
   instruction plus the embedded general-unification steps.  Trail
   discipline is identical — bindings are marked and undone here on
   failure — so the engines' choice-point machinery cannot tell the two
   apart.

   Frame policy: a [c_scratch] clause runs head and body on the agent's
   reusable scratch frame and never allocates; any other clause gets a
   heap environment (counted in [env_allocs]) that doubles as the
   instance's frame, and its body escapes as a single [Clause.Exec]
   item — the engine executes it step by step through [exec_body]. *)
let try_code_args a ~(ctx : Builtins.ctx) (args : Term.t array) clause =
  let cost = a.cost and stats = a.stats and trail = ctx.Builtins.trail in
  charge a cost.Cost.clause_try;
  stats.Stats.clause_tries <- stats.Stats.clause_tries + 1;
  let code = Code.of_clause clause in
  let sc = a.sc in
  let mark = Trail.mark trail in
  let frame =
    if code.Code.c_scratch then Code.scratch_frame sc code
    else begin
      stats.Stats.env_allocs <- stats.Stats.env_allocs + 1;
      Code.frame code
    end
  in
  sc.Code.s_instrs <- 0;
  sc.Code.s_steps := 0;
  let ok = Code.run_head code ~trail ~sc frame args in
  let instrs = sc.Code.s_instrs and steps = !(sc.Code.s_steps) in
  charge a ((instrs * cost.Cost.code_instr) + (steps * cost.Cost.unify_step));
  stats.Stats.code_instrs <- stats.Stats.code_instrs + instrs;
  stats.Stats.unify_steps <- stats.Stats.unify_steps + steps;
  let pushed = Trail.size trail - mark in
  charge a (pushed * cost.Cost.trail_push);
  stats.Stats.trail_pushes <- stats.Stats.trail_pushes + pushed;
  if not ok then begin
    untrail a trail mark;
    R_fail
  end
  else if code.Code.c_scratch then begin
    let r = run_scratch_body a ~ctx ~trail ~mark code frame 0 in
    (match r with
    | R_body [] ->
      if Prof.live a.prof then
        Prof.exit_key a.prof (Prof.key_of_term clause.Clause.head)
    | R_fail | R_body _ | R_exec | R_alts | R_rows | R_control | R_answers _
    | R_consume _ ->
      ());
    r
  end
  else
    R_body
      [ Clause.Exec
          { Clause.xf_code = clause.Clause.code; xf_pc = 0; xf_env = frame } ]

(* One clause try in the agent's mode: compiled code against the goal's
   arguments, or an interpreted head. *)
let try_clause a (ctx : Builtins.ctx) goal clause =
  if a.compiled then
    let args =
      match Term.deref goal with
      | Term.Struct (_, args) -> args
      | Term.Atom _ | Term.Int _ | Term.Var _ -> Code.no_args
    in
    try_code_args a ~ctx args clause
  else try_head a ~trail:ctx.Builtins.trail goal clause

(* The profiler's exit and fail ports of a store call; out of line, so
   the row path's bodies hold no profiler code (which reads the GC's
   counters through C calls). *)
let[@inline never] prof_row_exit a st =
  Prof.exit_key a.prof (Prof.key (Store.name st) (Store.arity st))

let[@inline never] prof_row_fail a st =
  Prof.fail a.prof (Prof.key (Store.name st) (Store.arity st))

(* A row of a store against the call's arguments in [args] (a register
   file or a goal's arguments): one clause try that reads the arguments
   as a compiled fact's head code would, one [code_instr] per argument
   read, binding an unbound argument to the row's shared cell.  A
   failed try undoes its bindings (charged). *)
let try_row a ~trail (args : Term.t array) st r =
  let cost = a.cost and stats = a.stats in
  let mark = Trail.mark trail in
  let read = Store.unify_row st r args trail in
  let instrs = if read < 0 then -read else read in
  charge a (cost.Cost.clause_try + (instrs * cost.Cost.code_instr));
  stats.Stats.clause_tries <- stats.Stats.clause_tries + 1;
  stats.Stats.code_instrs <- stats.Stats.code_instrs + instrs;
  let pushed = Trail.size trail - mark in
  charge a (pushed * cost.Cost.trail_push);
  stats.Stats.trail_pushes <- stats.Stats.trail_pushes + pushed;
  if read < 0 then begin
    untrail a trail mark;
    false
  end
  else begin
    if Prof.live a.prof then prof_row_exit a st;
    true
  end

let rec dead_row (r : int) = function
  | [] -> false
  | d :: rest -> d = r || dead_row r rest

(* The cursor's next alternative that matches, tried in order; [R_fail]
   once none is left.  A matched row is a fact: nothing to run. *)
let rec next_alt a (ctx : Builtins.ctx) cu =
  match cu.cu_front with
  | c :: rest ->
    cu.cu_front <- rest;
    next_clause a ctx cu c
  | [] ->
    let pos = cu.cu_pos in
    if pos < cu.cu_hi then begin
      cu.cu_pos <- pos + 1;
      let r = Store.row_at cu.cu_order pos in
      if
        (match cu.cu_rows.Database.dead with
         | [] -> false
         | dead -> dead_row r dead)
        || not
             (try_row a ~trail:ctx.Builtins.trail cu.cu_args
                cu.cu_rows.Database.store r)
      then next_alt a ctx cu
      else R_body []
    end
    else
      match cu.cu_back with
      | c :: rest ->
        cu.cu_back <- rest;
        next_clause a ctx cu c
      | [] -> R_fail

and next_clause a ctx cu c =
  match try_code_args a ~ctx cu.cu_args c with
  | R_fail -> next_alt a ctx cu
  | resolved -> resolved

let has_alts cu =
  cu.cu_pos < cu.cu_hi
  || (match cu.cu_front with [] -> false | _ :: _ -> true)
  || match cu.cu_back with [] -> false | _ :: _ -> true

let cursor_alts cu =
  cu.cu_hi - cu.cu_pos + List.length cu.cu_front + List.length cu.cu_back

let cursor_key cu =
  let st = cu.cu_rows.Database.store in
  Prof.key (Store.name st) (Store.arity st)

let cursor_goal cu =
  let st = cu.cu_rows.Database.store in
  if Store.arity st = 0 then Term.Atom (Store.name st)
  else Term.Struct (Store.name st, cu.cu_args)

let cursor_with_args cu args = { cu with cu_args = args }

(* Executes a compiled body from [pc]: consecutive builtins run inline
   (the common determinate prefix), and the first step the kernel
   cannot finish by itself is decoded for the engine to schedule.
   Charges one [code_instr] per register load plus one per operation.
   On [Ex_fail] the trail is NOT unwound here — the engine backtracks to
   its own choice-point mark, exactly as when an interpreted body goal
   fails. *)
let rec exec_steps a ctx (body : Code.step array) env pc =
  if pc >= Array.length body then begin
    if Prof.live a.prof then Prof.exit_top a.prof;
    Ex_done
  end
  else begin
    let step = body.(pc) in
    let nput = Array.length step.Code.s_puts in
    charge a ((nput + 1) * a.cost.Cost.code_instr);
    a.stats.Stats.code_instrs <- a.stats.Stats.code_instrs + nput + 1;
    match step.Code.s_op with
    | Code.O_builtin sym -> (
      match call_builtin_step a ctx sym env step.Code.s_puts with
      | Builtins.Ok -> exec_steps a ctx body env (pc + 1)
      | Builtins.Fail -> Ex_fail
      | Builtins.Not_builtin ->
        (* seeded mutation only: surface as a goal so the engine raises
           its ordinary existence error *)
        Ex_goal (goal_of_regs sym nput a.sc.Code.s_regs, pc + 1))
    | Code.O_call (sym, live) ->
      ignore (Code.load_regs a.sc env step.Code.s_puts : Term.t array);
      Ex_call (sym, nput, pc + 1, live)
    | Code.O_execute sym ->
      ignore (Code.load_regs a.sc env step.Code.s_puts : Term.t array);
      a.callee <- sym;
      a.callee_arity <- nput;
      Ex_exec
    | Code.O_goal p -> Ex_goal (Code.build_put env p, pc + 1)
    | Code.O_par bodies -> Ex_par (List.map (Code.inst_bbody env) bodies, pc + 1)
  end

let exec_body a ctx (xf : Clause.exec_frame) =
  exec_steps a ctx (code_of_frame xf).Code.c_body xf.Clause.xf_env
    xf.Clause.xf_pc

let unify_goal = charged_unify

let existence goal =
  let name, arity =
    match Term.functor_name_of goal with Some na -> na | None -> ("?", 0)
  in
  Errors.existence_error name arity

(* Profiler call port of a selection, and its fail port when nothing
   matched the index. *)
let prof_select psh k clauses =
  Prof.call psh k;
  if clauses = [] then Prof.fail psh k

(* Interpreted clause selection, through classic first-argument
   indexing (a store's predicate through its clause view). *)
let select a goal =
  charge a a.cost.Cost.index_lookup;
  let clauses =
    match Database.lookup a.db goal with
    | Some clauses -> clauses
    | None -> existence goal
  in
  if Prof.live a.prof then prof_select a.prof (Prof.key_of_term goal) clauses;
  clauses

(* Compiled selection for a call whose arguments are the first cells of
   [args] (a goal's, or the register file: determinate recursion then
   selects its one clause without a goal term existing): a walk of the
   deep-indexing dispatch tree. *)
let select_code a sym arity args =
  charge a a.cost.Cost.index_lookup;
  let found = Database.find_code a.db sym arity args in
  (if Prof.live a.prof then
     match found with
     | Database.Clauses clauses -> prof_select a.prof (Prof.key sym arity) clauses
     | Database.Rows _ -> Prof.call a.prof (Prof.key sym arity)
     | Database.Undefined -> ());
  found

let unsupported a g =
  Errors.error "control construct %s not supported inside %s"
    (Ace_term.Pp.to_string (Term.deref g)) a.name

(* A lone candidate is tried at once: determinate after indexing, the
   call needs no choice point (the property LPCO and SPO key on).
   Several go to the engine's own choice point untried, so an engine
   that pays for its choice point before the first try (the simulators)
   keeps its charge order. *)
let candidates a ctx goal = function
  | [] -> R_fail
  | [ clause ] -> try_clause a ctx goal clause
  | clauses ->
    a.goal <- goal;
    a.alts <- clauses;
    R_alts

(* A store's predicate, called with [args]: the rows {!Store.select}
   leaves, with an overlay's clauses around them.  A lone row is tried
   at once; otherwise the alternatives go to the engine's choice point
   untried, as a cursor over a copy of the arguments (the registers are
   reused by the next call). *)
let rows a (ctx : Builtins.ctx) (args : Term.t array) (r : Database.rows) =
  let st = r.Database.store and sel = a.sel in
  Store.select st args sel;
  match r.Database.front, r.Database.back, r.Database.dead with
  | [], [], [] when sel.Store.hi - sel.Store.lo <= 1 ->
    if sel.Store.hi = sel.Store.lo then begin
      if Prof.live a.prof then prof_row_fail a st;
      R_fail
    end
    else if
      try_row a ~trail:ctx.Builtins.trail args st
        (Store.row_at sel.Store.order sel.Store.lo)
    then R_body []
    else R_fail
  | front, back, _ ->
    a.cursor <-
      {
        cu_rows = r;
        cu_args = Term.prefix args (Store.arity st);
        cu_order = sel.Store.order;
        cu_pos = sel.Store.lo;
        cu_hi = sel.Store.hi;
        cu_front = front;
        cu_back = back;
      };
    R_rows

(* A compiled call of a goal term, its arguments [args]. *)
let resolve_code a ctx goal sym arity (args : Term.t array) =
  match select_code a sym arity args with
  | Database.Clauses clauses -> candidates a ctx goal clauses
  | Database.Rows r -> rows a ctx args r
  | Database.Undefined -> Errors.existence_error (Symbol.name sym) arity

(* An untabled call of a goal term, in the agent's mode. *)
let resolve a ctx goal =
  if a.compiled then
    match Term.deref goal with
    | Term.Struct (sym, args) ->
      resolve_code a ctx goal sym (Array.length args) args
    | Term.Atom sym -> resolve_code a ctx goal sym 0 Code.no_args
    | Term.Int _ | Term.Var _ -> existence goal (* builtins refuse these first *)
  else candidates a ctx goal (select a goal)

(* ---------------------------------------------------------------- *)
(* Tabling: SLG evaluation of tabled subgoals                        *)
(*                                                                   *)
(* A tabled call is answered from the shared answer table; when the  *)
(* table is incomplete the calling agent first evaluates the subgoal *)
(* to completion, and the engine then reads the answers as           *)
(* pseudo-fact clauses through its own choice points.                *)
(*                                                                   *)
(* Every generator pass and consumer resumption runs on a sequential *)
(* machine built over the calling agent ([generator]) on a private   *)
(* trail, so a tabled clause takes the same steps as any other call. *)
(* A call to an incomplete subgoal on this evaluation's generator    *)
(* stack is a consumer ([R_consume]): the machine reads the answers  *)
(* so far through one choice point and saves its continuation on    *)
(* the consumed frame, with the reader's cursor and the private-     *)
(* trail bindings of its activation (CAT-style copying).  A new      *)
(* answer queues its frame, and the region's leader resumes the      *)
(* frame's consumers from their cursors: each sees every answer once.*)
(*                                                                   *)
(* Regions are found Tarjan-style: a region records the shallowest   *)
(* on-stack frame any of its activations consumed.  A frame whose    *)
(* region never reaches below it, checked after its first pass and   *)
(* after every round of resumptions, leads the region and completes  *)
(* it; otherwise it hands the region to the frame that called it.    *)
(*                                                                   *)
(* A consumer inside an if-then-else condition or negation, or whose *)
(* continuation can cut, is not saved (a fallback read), and the     *)
(* leader re-passes the region until no fallback read missed an      *)
(* answer.  Answer sets only grow and the shared table deduplicates, *)
(* so workers evaluating one region concurrently never wait.         *)

let generator :
    (agent -> Builtins.ctx -> resolved -> seg list -> (unit -> unit) -> unit)
    ref =
  ref (fun _ _ _ _ _ -> invalid_arg "Kernel.generator: no sequential engine")

let new_region low = { rg_low = low; rg_queue = []; rg_fallback = [] }

let queued rg = match rg.rg_queue with [] -> false | _ :: _ -> true

let behind co = co.co_reader.rd_next < Table.answer_count co.co_reader.rd_entry

(* A solution of [fr]'s subgoal: publish it into the shared table
   (insert-if-new; only a new answer is copied) and queue [fr] for its
   saved consumers. *)
let tinsert a tv fr goal =
  let stats = a.stats in
  let entry = fr.fr_entry in
  match Table.insert a.table entry goal with
  | Table.Inserted ->
    stats.Stats.table_answers <- stats.Stats.table_answers + 1;
    record a Trace.Table_answer entry.Table.id;
    (match fr.fr_consumers with
    | _ :: _ when not fr.fr_queued ->
      fr.fr_queued <- true;
      tv.tv_region.rg_queue <- fr :: tv.tv_region.rg_queue
    | _ -> ())
  | Table.Duplicate -> ()
  | Table.Overflow ->
    Errors.error "tabled subgoal %s exceeded the answer limit %d (raise it with --table-max-answers)"
      (Ace_term.Pp.to_canonical_string entry.Table.subgoal)
      (Table.max_answers a.table)

(* An activation of [fr] on a generator machine: a pass, which resolves
   [goal] against the program, or the resumption of [co], which first
   reinstalls its bindings (trailed, so the activation's end undoes
   them) and starts from its reader.  Every solution is an instance of
   [goal] published as an answer of [fr]; consumers saved inside belong
   to [fr] and copy the private-trail segment from here. *)
let activate a tv fr goal co =
  let trail = tv.tv_trail in
  let cur = tv.tv_cur and base = tv.tv_base in
  tv.tv_cur <- Some (fr, goal);
  tv.tv_base <- Trail.mark trail;
  let start, cont =
    match co with
    | None -> (resolve a tv.tv_ctx goal, [])
    | Some co ->
      let n = Array.length co.co_vars in
      for i = 0 to n - 1 do
        let v = co.co_vars.(i) in
        v.Term.binding <- co.co_vals.(i);
        Trail.push trail v
      done;
      charge a (n * a.cost.Cost.trail_push);
      a.stats.Stats.trail_pushes <- a.stats.Stats.trail_pushes + n;
      (R_answers co.co_reader, co.co_cont)
  in
  !generator a tv.tv_ctx start cont (fun () -> tinsert a tv fr goal);
  untrail a trail tv.tv_base;
  tv.tv_cur <- cur;
  tv.tv_base <- base

(* Rounds of resumptions: a queued frame's consumers get its unseen
   answers; new answers queue their frames again. *)
let rec drain a tv rg =
  match rg.rg_queue with
  | [] -> ()
  | fr :: rest ->
    rg.rg_queue <- rest;
    fr.fr_queued <- false;
    List.iter
      (fun co ->
        if behind co then activate a tv co.co_owner co.co_answer (Some co))
      fr.fr_consumers;
    drain a tv rg

(* Queues every region frame with a consumer behind its entry's count.
   Only another worker's inserts into a shared entry leave one behind:
   this worker's own inserts queue their frame. *)
let requeue_behind tv rg depth =
  let rec go = function
    | fr :: rest when fr.fr_depth >= depth ->
      if (not fr.fr_queued) && List.exists behind fr.fr_consumers then begin
        fr.fr_queued <- true;
        rg.rg_queue <- fr :: rg.rg_queue
      end;
      go rest
    | _ -> ()
  in
  go tv.tv_frames

(* One generator pass: a fresh instance of the subgoal run against the
   program, every solution published into the entry.  Passes after the
   first are the fallback's naive re-passes. *)
let tpass a tv fr =
  let stats = a.stats in
  fr.fr_passes <- fr.fr_passes + 1;
  if fr.fr_passes > 1 then begin
    stats.Stats.table_resumes <- stats.Stats.table_resumes + 1;
    record a Trace.Table_resume fr.fr_entry.Table.id
  end;
  activate a tv fr (Term.rename fr.fr_entry.Table.subgoal) None

(* The leader rule, checked after the first pass and after every
   round of resumptions: a region that consumed a frame below [fr] is
   handed to [outer] (its queue and fallback reads with it), and the
   frame that called [fr] keeps evaluating it.  Otherwise [fr] leads:
   resume queued consumers, requeue consumers another worker's answers
   left behind, re-pass the region while a fallback read missed an
   answer, and complete the region once nothing is left to return. *)
let rec lead a tv fr rg outer =
  if rg.rg_low < fr.fr_depth then begin
    tv.tv_region <- outer;
    if rg.rg_low < outer.rg_low then outer.rg_low <- rg.rg_low;
    outer.rg_queue <- List.rev_append rg.rg_queue outer.rg_queue;
    outer.rg_fallback <- List.rev_append rg.rg_fallback outer.rg_fallback
  end
  else if queued rg then begin
    drain a tv rg;
    lead a tv fr rg outer
  end
  else begin
    requeue_behind tv rg fr.fr_depth;
    if queued rg then lead a tv fr rg outer
    else if
      List.exists (fun (e, n) -> Table.answer_count e > n) rg.rg_fallback
    then begin
      rg.rg_fallback <- [];
      let region =
        List.rev
          (List.filter (fun f -> f.fr_depth >= fr.fr_depth) tv.tv_frames)
      in
      List.iter (fun f -> tpass a tv f) region;
      lead a tv fr rg outer
    end
    else begin
      tv.tv_region <- outer;
      (* completion, deepest frame first (the leader logs last) *)
      let rec pop () =
        match tv.tv_frames with
        | f :: rest when f.fr_depth >= fr.fr_depth ->
          tv.tv_frames <- rest;
          Hashtbl.remove tv.tv_on_stack f.fr_entry.Table.id;
          Table.set_complete a.table f.fr_entry;
          record a Trace.Table_complete f.fr_entry.Table.id;
          pop ()
        | _ -> ()
      in
      pop ()
    end
  end

(* Evaluates a new entry: push a generator frame, run its first pass
   in a region of its own, then lead or hand up (see [lead]). *)
let teval_entry a tv entry =
  charge a a.cost.Cost.index_lookup;
  let depth =
    match tv.tv_frames with [] -> 0 | f :: _ -> f.fr_depth + 1
  in
  let fr =
    {
      fr_entry = entry;
      fr_depth = depth;
      fr_passes = 0;
      fr_consumers = [];
      fr_queued = false;
    }
  in
  tv.tv_frames <- fr :: tv.tv_frames;
  Hashtbl.replace tv.tv_on_stack entry.Table.id fr;
  let outer = tv.tv_region in
  let rg = new_region depth in
  tv.tv_region <- rg;
  tpass a tv fr;
  lead a tv fr rg outer

let reader entry goal ~fallback =
  { rd_entry = entry; rd_goal = goal; rd_next = 0; rd_fallback = fallback }

(* A consumer of [fr]'s incomplete subgoal: its reader, a fallback read
   until the machine saves it (see [save]). *)
let consume a tv fr goal =
  a.stats.Stats.table_suspends <- a.stats.Stats.table_suspends + 1;
  record a Trace.Table_suspend fr.fr_entry.Table.id;
  let rg = tv.tv_region in
  if fr.fr_depth < rg.rg_low then rg.rg_low <- fr.fr_depth;
  R_consume (reader fr.fr_entry goal ~fallback:true)

let save a rd cont =
  let tv = Option.get a.tabling in
  let owner, answer = Option.get tv.tv_cur in
  let fr = Hashtbl.find tv.tv_on_stack rd.rd_entry.Table.id in
  let vars =
    Trail.segment tv.tv_trail ~lo:tv.tv_base ~hi:(Trail.size tv.tv_trail)
  in
  rd.rd_fallback <- false;
  fr.fr_consumers <-
    {
      co_reader = rd;
      co_cont = cont;
      co_owner = owner;
      co_answer = answer;
      co_vars = vars;
      co_vals = Array.map (fun (v : Term.var) -> v.Term.binding) vars;
    }
    :: fr.fr_consumers

(* A read cut short by a commit ([!], a condition, [\+] finding a
   solution) records nothing: answers only append, so the answers
   before the committing one, and the commit, are the same in any later
   pass.  An exhausted fallback read records how many it returned. *)
let rec next_answer a ~trail rd =
  let entry = rd.rd_entry in
  let i = rd.rd_next in
  if i < Table.answer_count entry then begin
    rd.rd_next <- i + 1;
    let ans = Table.answer entry i in
    unify_goal a ~trail rd.rd_goal
      (if Term.is_ground ans then ans else Term.rename ans)
    || next_answer a ~trail rd
  end
  else begin
    if rd.rd_fallback then begin
      let rg = (Option.get a.tabling).tv_region in
      rg.rg_fallback <- (entry, i) :: rg.rg_fallback
    end;
    false
  end

(* A complete table's answers as pseudo-fact clauses, so the engine's
   ordinary clause machinery (choice points, trail, publication,
   profiling) enumerates them exactly like a predicate of facts. *)
let answers a ctx goal (entry : Table.entry) =
  candidates a ctx goal
    (match entry.Table.answer_clauses with
    | Some clauses -> clauses
    | None ->
      let clauses =
        List.init (Table.answer_count entry) (fun i ->
            let c = Clause.of_term (Table.answer entry i) in
            (* precompile before publishing the clause so concurrent
               readers never race on the mutable code slot *)
            ignore (Code.of_clause c : Code.t);
            c)
      in
      entry.Table.answer_clauses <- Some clauses;
      clauses)

(* A tabled call.  Outside an evaluation an incomplete subgoal is
   evaluated synchronously, with no enclosing generator, so it leads its
   own region and completes; the engine gets the answers as
   pseudo-facts.  Inside one (on a generator's machine) an on-stack
   subgoal is consumed, any other is evaluated first, and a complete
   table is read by index like a consumer's. *)
let table_call a ctx goal =
  let stats = a.stats in
  let entry, created = Table.subgoal_entry a.table goal in
  if created then begin
    stats.Stats.table_subgoals <- stats.Stats.table_subgoals + 1;
    record a Trace.Table_subgoal entry.Table.id
  end
  else stats.Stats.table_variant_hits <- stats.Stats.table_variant_hits + 1;
  let complete () =
    stats.Stats.table_answer_hits <- stats.Stats.table_answer_hits + 1;
    match a.tabling with
    | None -> answers a ctx goal entry
    | Some _ -> R_answers (reader entry goal ~fallback:false)
  in
  if Table.is_complete entry then complete ()
  else
    match a.tabling with
    | None ->
      let trail = Trail.create () in
      let tv =
        {
          tv_ctx = { ctx with Builtins.trail };
          tv_trail = trail;
          tv_frames = [];
          tv_on_stack = Hashtbl.create 16;
          tv_cur = None;
          tv_base = 0;
          tv_region = new_region max_int;
        }
      in
      a.tabling <- Some tv;
      Fun.protect
        ~finally:(fun () -> a.tabling <- None)
        (fun () -> teval_entry a tv entry);
      assert (Table.is_complete entry);
      answers a ctx goal entry
    | Some tv -> (
      match Hashtbl.find_opt tv.tv_on_stack entry.Table.id with
      | Some fr -> consume a tv fr goal
      | None -> (
        teval_entry a tv entry;
        if Table.is_complete entry then complete ()
        else
          (* the new entry joined an enclosing region *)
          match Hashtbl.find_opt tv.tv_on_stack entry.Table.id with
          | Some fr -> consume a tv fr goal
          | None -> assert false (* a handed-up frame stays on the stack *)))

(* ------------------------------------------------------------------ *)
(* The step: what calling a goal comes to                              *)
(* ------------------------------------------------------------------ *)

(* The call chokepoint: a fired token raises {!Cancel.Cancelled} here,
   out to the engine's handler.  Tabled predicates answer from the
   shared table (evaluated first when incomplete), as pseudo-facts. *)
let user a ctx goal =
  Cancel.check a.cancel;
  if Database.is_tabled_goal a.db goal then table_call a ctx goal
  else resolve a ctx goal

let step a ctx goal =
  let goal = Term.deref goal in
  if Code.is_control goal then R_control
  else
    match call_builtin a ctx goal with
    | Builtins.Ok -> R_body []
    | Builtins.Fail -> R_fail
    | Builtins.Not_builtin -> user a ctx goal

let step_regs a ctx sym arity =
  Cancel.check a.cancel;
  let regs = a.sc.Code.s_regs in
  if Database.is_tabled a.db sym arity then
    (* materialized: tabled answers must outlive the registers, and the
       table keys on the goal term *)
    user a ctx (goal_of_regs sym arity regs)
  else
    match select_code a sym arity regs with
    | Database.Clauses [] -> R_fail
    | Database.Clauses [ clause ] -> try_code_args a ~ctx regs clause
    | Database.Clauses clauses ->
      (* a goal inside a choice point must outlive the registers *)
      a.goal <- goal_of_regs sym arity regs;
      a.alts <- clauses;
      R_alts
    | Database.Rows r -> rows a ctx regs r
    | Database.Undefined -> Errors.existence_error (Symbol.name sym) arity

let step_callee a ctx = step_regs a ctx a.callee a.callee_arity

(* ------------------------------------------------------------------ *)
(* Optimization-schema decisions                                       *)
(* ------------------------------------------------------------------ *)

module Schema = struct
  (* Granularity control: bounded term-size estimate of the branches —
     for list recursions this is proportional to the remaining input, so
     the top of a computation forks and the fine-grained bottom stays
     sequential. *)
  let sequentialize (config : Config.t) bodies =
    config.Config.seq_threshold > 0
    &&
    let limit = config.Config.seq_threshold in
    let goal_estimate g = Term.size_at_most g ~limit in
    let rec body_estimate budget = function
      | [] -> budget
      | Clause.Call g :: rest ->
        let budget = budget - goal_estimate g in
        if budget <= 0 then 0 else body_estimate budget rest
      | Clause.Exec _ :: rest ->
        (* a compiled continuation carries no term to measure; charge a
           token unit (parcall branches never contain these anyway) *)
        body_estimate (budget - 1) rest
      | Clause.Par inner :: rest ->
        let budget =
          List.fold_left
            (fun b body -> if b <= 0 then 0 else body_estimate b body)
            budget inner
        in
        if budget <= 0 then 0 else body_estimate budget rest
    in
    let remaining =
      List.fold_left
        (fun b body -> if b <= 0 then 0 else body_estimate b body)
        limit bodies
    in
    remaining > 0

  (* A branch that is nothing but a nested parallel conjunction brings no
     work of its own: splice its branches into the enclosing parcall. *)
  let lpco_flatten (config : Config.t) bodies =
    if not config.Config.lpco then (bodies, 0)
    else begin
      let splices = ref 0 in
      let rec flatten bodies =
        List.concat_map
          (function
            | [ Clause.Par inner ] ->
              incr splices;
              flatten inner
            | body -> [ body ])
          bodies
      in
      let flat = flatten bodies in
      (flat, !splices)
    end

  let spo_inline (config : Config.t) ~hungry = config.Config.spo && hungry = 0

  let pdo_contiguous (config : Config.t) ~last ~next =
    config.Config.pdo
    &&
    match last with
    | Some (frame, index) -> frame = fst next && index + 1 = snd next
    | None -> false

  let publish_grain (config : Config.t) ~nalts = nalts >= config.Config.grain

  let lao_refurbish (config : Config.t) ~top_exhausted =
    config.Config.lao && top_exhausted
end

(* ------------------------------------------------------------------ *)
(* And-parallel join helpers                                           *)
(* ------------------------------------------------------------------ *)

module Parcall = struct
  let partuple = Symbol.intern "$partuple"
  let parjoin = Symbol.intern "$parjoin"

  (* Free (unbound, after dereferencing) variables of one branch, in
     first-occurrence order; [seen] spans all branches so sharing is
     detected. *)
  exception Shared

  let slot_tuples bodies =
    let seen = Hashtbl.create 16 in
    let tuple body =
      let local = Hashtbl.create 16 in
      let acc = ref [] in
      let rec go t =
        match Term.deref t with
        | Term.Atom _ | Term.Int _ -> ()
        | Term.Var v ->
          if not (Hashtbl.mem local v.Term.vid) then begin
            if Hashtbl.mem seen v.Term.vid then raise Shared;
            Hashtbl.add local v.Term.vid ();
            acc := Term.Var v :: !acc
          end
        | Term.Struct (_, args) -> Array.iter go args
      in
      let rec go_body body =
        List.iter
          (function
            | Clause.Call g -> go g
            | Clause.Exec _ ->
              (* opaque compiled continuation: cannot enumerate its free
                 variables, so refuse independence (sequential fallback) *)
              raise Shared
            | Clause.Par bodies -> List.iter go_body bodies)
          body
      in
      go_body body;
      Hashtbl.iter (fun vid () -> Hashtbl.replace seen vid ()) local;
      Term.Struct (partuple, Array.of_list (List.rev !acc))
    in
    match List.map tuple bodies with
    | tuples -> Some (Array.of_list tuples)
    | exception Shared -> None

  let template tuples = Term.Struct (parjoin, Array.copy tuples)

  (* Rightmost slot varying fastest — the order sequential backtracking
     over the same conjunction would enumerate. *)
  let cross rows =
    let n = Array.length rows in
    let acc = ref [] in
    let combo = Array.make n (Term.Atom Symbol.nil) in
    let rec go i =
      if i = n then acc := Term.Struct (parjoin, Array.copy combo) :: !acc
      else
        List.iter
          (fun t ->
            combo.(i) <- t;
            go (i + 1))
          rows.(i)
    in
    if n = 0 then [ Term.Struct (parjoin, [||]) ]
    else begin
      go 0;
      List.rev !acc
    end
end
