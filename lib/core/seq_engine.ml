(* Sequential Prolog engine: the "state-of-the-art sequential system"
   baseline of the paper (its SICStus stand-in).

   An explicit machine with a continuation stack and a choice-point stack.
   Parallel conjunctions ('&') are executed as ordinary sequential
   conjunctions, so annotated benchmark programs run unchanged and the
   parallel engines' 1-agent overhead can be measured against this engine
   on identical programs.

   The engine charges every operation to an abstract-cycle accumulator
   using the same {!Ace_machine.Cost} table as the simulated parallel
   engines; the resulting total is the T_seq that parallel overhead is
   computed against.  It also evaluates tabled subgoals for every engine:
   {!generate} runs each generator pass and consumer resumption on a
   fresh machine over the calling agent, on that agent's clock. *)

module Term = Ace_term.Term
module Trail = Ace_term.Trail
module Clause = Ace_lang.Clause
module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Code = Ace_lang.Code
module Chaos = Ace_sched.Chaos
module Trace = Ace_obs.Trace
module Prof = Ace_obs.Prof

type alts =
  | Aclauses of Clause.t list
      (* remaining candidate clauses, stored as the selection's own list
         so a nondeterminate call allocates no per-clause wrapper *)
  | Agoal of Clause.body (* right branch of a disjunction *)
  | Aanswers of Kernel.reader
      (* a table reader's answers, read up to the table's live count *)

type seg = Kernel.seg = { items : Clause.item list; barrier : int }
(* [barrier] is the choice-point stack height a cut in these items
   restores. *)

type cp = {
  cp_goal : Term.t option; (* None for disjunction choice points *)
  mutable cp_alts : alts;
  cp_cont : seg list;
  cp_trail : int;
  cp_hb : int; (* the trail's watermark below this choice point *)
  cp_height : int; (* stack height below this choice point *)
}

type t = {
  trail : Trail.t;
  ctx : Builtins.ctx;
  chaos : Chaos.agent;
    (* jitter charges extra abstract cycles at yield sites; answers must
       not depend on it (there is no concurrency here — the hook exists so
       the checker can assert cycle-jitter invariance uniformly) *)
  a : Kernel.agent;
    (* the kernel's view of the engine: the database and answer table,
       the execution mode, cost table, the single stats shard, the
       compiled-code scratch, the profiler shard, the cancel token
       (checked at the call and backtrack chokepoints; {!Cancel.none}
       costs one physical-equality test there) and the abstract-cycle
       accumulator every charge is paid into, which also stamps trace
       events *)
  mutable cps : cp list;
  mutable height : int;
}

(* Conditional trailing: the compiled machine keeps its trail's
   watermark at the stamp of the newest of its choice points and open
   [solve_once] marks, and at -1 when there is none (nothing can be
   undone then; {!Engine.run} unbinds the goal's variables itself).
   Every site that pushes a choice point or opens a [solve_once] raises
   it with {!Trail.raise_hb}, which returns the value below, and every
   pop puts that value back.  The interpreted machine and a tabled generator's machine keep
   a full trail ([max_int], which [raise_hb] leaves alone): the
   interpreter's trail pushes are charged in the paper's cost model, and
   a saved consumer copies its activation's complete trail segment. *)
let create (opts : Run.opts) table (config : Config.t) db =
  let trail = Trail.create () in
  if config.Config.compile then Trail.set_hb trail (-1);
  {
    trail;
    ctx = Builtins.make_ctx ?output:opts.Run.output ~trail ();
    chaos = Chaos.agent opts.Run.chaos 0;
    a =
      Kernel.agent opts ~name:"the sequential engine" ~clock:Kernel.Cycles
        ~cost:config.Config.cost ~stats:(Stats.create ()) ~db
        ~table ~compiled:config.Config.compile ~dom:0;
    cps = [];
    height = 0;
  }

let spend m n = Kernel.charge m.a n

(* No charge (a simulator's tick yields) when the jitter draws none. *)
let jitter m = match Chaos.jitter m.chaos with 0 -> () | n -> spend m n

(* [mark] is the trail height the choice point restores on backtracking —
   the caller's mark from *before* any bindings the first taken
   alternative made (shallow backtracking pushes the choice point only
   after a head has already matched).  [hb] is the watermark below it,
   which a pop restores; the caller has raised the trail's own before
   the first such binding. *)
let push_cp m ~mark ~hb ~goal ~alts ~cont =
  jitter m;
  spend m m.a.cost.Cost.cp_alloc;
  m.a.stats.Stats.cp_allocs <- m.a.stats.Stats.cp_allocs + 1;
  m.a.stats.Stats.stack_words <-
    m.a.stats.Stats.stack_words + Cost.words_choice_point;
  let cp =
    {
      cp_goal = goal;
      cp_alts = alts;
      cp_cont = cont;
      cp_trail = mark;
      cp_hb = hb;
      cp_height = m.height;
    }
  in
  m.cps <- cp :: m.cps;
  m.height <- m.height + 1

(* Pops the newest choice point [cp], restoring the watermark below
   it. *)
let pop m cp below =
  m.cps <- below;
  m.height <- m.height - 1;
  Trail.set_hb m.trail cp.cp_hb

let undo_to m mark = Kernel.untrail m.a m.trail mark

let cut m barrier =
  while m.height > barrier do
    match m.cps with
    | [] -> assert false
    | cp :: below -> pop m cp below
  done

(* The end of a [solve_once] continuation (a condition's or [\+]'s). *)
let once = { items = []; barrier = 0 }

let once_cont = [ once ]

(* Whether running [item] can execute a [!] that cuts to its segment's
   barrier ([\+], a condition and [call/1] keep their cuts local); a
   compiled frame's goals are built on a copy of its environment. *)
let rec item_cuts = function
  | Clause.Call g -> goal_cuts g
  | Clause.Par bodies -> List.exists (List.exists item_cuts) bodies
  | Clause.Exec { Clause.xf_code = Code.Compiled code; xf_pc; xf_env } ->
    let env = Array.copy xf_env and body = code.Code.c_body in
    let rec from pc =
      pc < Array.length body
      && ((match body.(pc).Code.s_op with
          | Code.O_goal p -> goal_cuts (Code.build_put env p)
          | Code.O_par bodies ->
            List.exists
              (List.exists item_cuts)
              (List.map (Code.inst_bbody env) bodies)
          | Code.O_builtin _ | Code.O_call _ | Code.O_execute _ -> false)
         || from (pc + 1))
    in
    from xf_pc
  | Clause.Exec _ -> false

and goal_cuts g =
  match Kernel.classify g with
  | Kernel.Cut -> true
  | Kernel.Conj g | Kernel.Amp g -> (
    match Term.deref g with
    | Term.Struct (_, [| l; r |]) -> goal_cuts l || goal_cuts r
    | _ -> false)
  | Kernel.Disj (l, r) | Kernel.Ite (_, l, r) -> goal_cuts l || goal_cuts r
  | Kernel.Naf _ | Kernel.Meta _ | Kernel.Sentinel _ | Kernel.Goal _ -> false

(* A tabled consumer's continuation as saved for resumption, or [None]
   (a fallback read) when it stops at a [solve_once] or a [!] in it
   would cut the table's reader.  Compiled frames get a copy of their
   environment (the running instance keeps writing its own), and every
   segment a barrier no height equals, so they are never trimmed. *)
let rec saved = function
  | [] -> Some []
  | seg :: _ when seg == once || List.exists item_cuts seg.items -> None
  | seg :: rest ->
    let copy = function
      | Clause.Exec xf -> Clause.Exec { xf with xf_env = Array.copy xf.xf_env }
      | item -> item
    in
    Option.map
      (List.cons { items = List.map copy seg.items; barrier = max_int })
      (saved rest)

(* [run] drives forward execution; [backtrack] resumes at the newest choice
   point.  Both return [true] when a solution is reached (the machine state
   is then frozen until the caller asks for the next solution). *)
let rec run m (cont : seg list) : bool =
  match cont with
  | [] -> true
  | { items = []; _ } :: rest -> run m rest
  | ({ items = item :: items; barrier } as seg) :: rest -> (
    (* last item of the segment: drop the seg instead of keeping an
       empty one around (saves an allocation per body executed) *)
    let cont' =
      match items with [] -> rest | _ -> { seg with items } :: rest
    in
    match item with
    | Clause.Par bodies ->
      (* Sequential semantics of '&': plain conjunction. *)
      run m (List.map (fun body -> { items = body; barrier }) bodies @ cont')
    | Clause.Call g -> dispatch m g ~barrier cont'
    | Clause.Exec xf -> exec_frame m xf ~barrier cont')

(* Resumes a compiled clause body from its saved pc.  The kernel runs
   consecutive builtins inline and decodes the first step it cannot
   finish; trimming and calling are scheduling policy, so they live
   here. *)
and exec_frame m xf ~barrier cont =
  match Kernel.exec_body m.a m.ctx xf with
  | Kernel.Ex_fail -> backtrack m
  | Kernel.Ex_done -> run m cont
  | Kernel.Ex_goal (g, pc) -> dispatch m g ~barrier (resume xf pc ~barrier cont)
  | Kernel.Ex_par (bodies, pc) ->
    (* Sequential semantics of '&', as in [run]. *)
    run m
      (List.map (fun body -> { items = body; barrier }) bodies
      @ resume xf pc ~barrier cont)
  | Kernel.Ex_call (sym, arity, pc, live) ->
    (* Environment trimming: untrailed clears, legal only while the
       frame is provably private — no choice point pushed (and still
       alive) since clause entry, so no earlier pc of this frame can
       ever be resumed. *)
    if m.height = barrier then Kernel.trim_env xf live;
    let cont = resume xf pc ~barrier cont in
    continue m (Kernel.step_regs m.a m.ctx sym arity) cont
  | Kernel.Ex_exec ->
    (* Last call: the frame is dropped before the callee runs. *)
    continue m (Kernel.step_callee m.a m.ctx) cont

and resume xf pc ~barrier cont =
  match Kernel.exec_cont xf pc [] with
  | [] -> cont
  | items -> { items; barrier } :: cont

(* A fired cancel token raises out of the kernel's call chokepoint to
   the [Cancelled] handler in [collect], so no further (possibly
   wrong-under-cancellation) solution can be reported. *)
and dispatch m g ~barrier cont =
  match Kernel.step m.a m.ctx g with
  | Kernel.R_control -> control m g ~barrier cont
  | resolved -> continue m resolved cont

and control m g ~barrier cont =
  match Kernel.classify g with
  | Kernel.Cut ->
    cut m barrier;
    run m cont
  | Kernel.Conj g | Kernel.Amp g ->
    (* a dynamically built '&' runs as a conjunction, like a static one *)
    run m ({ items = Clause.compile_body g; barrier } :: cont)
  | Kernel.Ite (cond, then_, else_) ->
    if_then_else m cond then_ else_ ~barrier cont
  | Kernel.Disj (left, else_) ->
    let hb = Trail.raise_hb m.trail in
    push_cp m ~mark:(Trail.mark m.trail) ~hb ~goal:None
      ~alts:(Agoal (Clause.compile_body else_)) ~cont;
    run m ({ items = Clause.compile_body left; barrier } :: cont)
  | Kernel.Naf g ->
    let mark = Trail.mark m.trail in
    let proved = solve_once m g in
    undo_to m mark;
    if proved then backtrack m else run m cont
  | Kernel.Meta g ->
    (* call/1 is transparent to everything but cut: the cut barrier becomes
       the current height, making the inner cut local. *)
    dispatch m g ~barrier:m.height cont
  | Kernel.Sentinel _ | Kernel.Goal _ ->
    (* the report-and-fail sentinel belongs to the or-engines *)
    Kernel.unsupported m.a g

and if_then_else m cond then_ else_ ~barrier cont =
  let mark = Trail.mark m.trail in
  if solve_once m cond then
    (* commit to the condition's first solution (bindings kept) *)
    run m ({ items = Clause.compile_body then_; barrier } :: cont)
  else begin
    undo_to m mark;
    run m ({ items = Clause.compile_body else_; barrier } :: cont)
  end

(* Proves [g] once on a private choice-point stack, keeping bindings.  Used
   by negation and if-then-else, whose callers undo to their own mark:
   the watermark is raised for the proof and restored after it. *)
and solve_once m g =
  let saved_cps = m.cps and saved_height = m.height in
  let hb = Trail.raise_hb m.trail in
  m.cps <- [];
  m.height <- 0;
  let found = dispatch m g ~barrier:0 once_cont in
  m.cps <- saved_cps;
  m.height <- saved_height;
  Trail.set_hb m.trail hb;
  found

(* Schedules what a step or one clause try came to.  [R_exec] is the
   last-call case: the callee's arguments sit in the registers and
   nothing was stacked, so a determinate recursion loops through
   [continue] in constant space (a tail call). *)
and continue m resolved cont =
  match resolved with
  | Kernel.R_fail -> backtrack m
  | Kernel.R_body [] -> run m cont
  | Kernel.R_body items -> run m ({ items; barrier = m.height } :: cont)
  | Kernel.R_exec -> continue m (Kernel.step_callee m.a m.ctx) cont
  | Kernel.R_alts -> shallow m m.a.Kernel.goal m.a.Kernel.alts cont
  | Kernel.R_answers rd -> read m rd cont
  | Kernel.R_consume rd ->
    Option.iter (Kernel.save m.a rd) (saved cont);
    read m rd cont
  | Kernel.R_control -> assert false (* [dispatch] takes control constructs *)

(* A table reader's answers before [cont]; its choice point stays until
   the live count is read, so answers [cont] adds are returned too.
   Readers run only on a generator's machine, whose trail is full; the
   watermark is kept as at every other choice point all the same. *)
and read m rd cont =
  let mark = Trail.mark m.trail and hb = Trail.raise_hb m.trail in
  if Kernel.next_answer m.a ~trail:m.trail rd then begin
    push_cp m ~mark ~hb ~goal:None ~alts:(Aanswers rd) ~cont;
    run m cont
  end
  else begin
    Trail.set_hb m.trail hb;
    backtrack m
  end

(* Shallow backtracking (WAM-style): scan the candidates for the first
   one whose head matches before allocating a choice point, so clauses
   rejected by head unification cost no choice-point traffic.  The
   choice point — pushed only when a later alternative remains — records
   the pre-scan trail mark, since those alternatives must be retried
   from the caller's bindings, and keeps the pre-scan stamp as its
   watermark: the scan raises it before the first head unification. *)
and shallow m g clauses cont =
  let hb = Trail.raise_hb m.trail in
  scan m g (Trail.mark m.trail) hb clauses cont

(* Top-level rather than a closure inside [shallow], so a scan allocates
   nothing of its own. *)
and scan m g mark hb clauses cont =
  match clauses with
  | [] ->
    Trail.set_hb m.trail hb;
    if Prof.live m.a.prof then Prof.fail m.a.prof (Prof.key_of_term g);
    backtrack m
  | clause :: rest -> (
    match Kernel.try_clause m.a m.ctx g clause with
    | Kernel.R_fail ->
      undo_to m mark;
      scan m g mark hb rest cont
    | resolved ->
      (* The choice point is pushed before [continue] consumes the
         resolution, so an [R_exec] callee's segments sit above it —
         its barrier (the pre-push height) is captured first.  A
         matched fact ([R_body []]) stacks nothing. *)
      let barrier = m.height in
      if rest <> [] then
        push_cp m ~mark ~hb ~goal:(Some g) ~alts:(Aclauses rest) ~cont
      else Trail.set_hb m.trail hb;
      (match resolved with
      | Kernel.R_body (_ :: _ as items) -> run m ({ items; barrier } :: cont)
      | resolved -> continue m resolved cont))

and backtrack m =
  Cancel.check m.a.cancel;
  m.a.stats.Stats.backtracks <- m.a.stats.Stats.backtracks + 1;
  jitter m;
  match m.cps with
  | [] -> false
  | cp :: below -> (
    spend m m.a.cost.Cost.backtrack_node;
    m.a.stats.Stats.bt_nodes_visited <- m.a.stats.Stats.bt_nodes_visited + 1;
    match cp.cp_alts with
    | Aclauses clauses ->
      undo_to m cp.cp_trail;
      spend m m.a.cost.Cost.cp_restore;
      let goal = match cp.cp_goal with Some g -> g | None -> assert false in
      if Prof.live m.a.prof then Prof.redo m.a.prof (Prof.key_of_term goal);
      rescan m cp below goal clauses
    | Agoal body ->
      undo_to m cp.cp_trail;
      spend m m.a.cost.Cost.cp_restore;
      (* a disjunction's right branch is its only alternative: trust *)
      pop m cp below;
      run m ({ items = body; barrier = m.height } :: cp.cp_cont)
    | Aanswers rd ->
      undo_to m cp.cp_trail;
      spend m m.a.cost.Cost.cp_restore;
      if Kernel.next_answer m.a ~trail:m.trail rd then run m cp.cp_cont
      else begin
        pop m cp below;
        backtrack m
      end)

(* Shallow scan, as in [scan], of the alternatives [cp] retries:
   head-rejected alternatives are dropped without re-entering the
   backtracker; the last matching alternative pops the choice point (WAM
   "trust").  Top-level, like [scan], so a retry allocates no closure. *)
and rescan m cp below goal = function
  | [] ->
    if Prof.live m.a.prof then Prof.fail m.a.prof (Prof.key_of_term goal);
    pop m cp below;
    backtrack m
  | clause :: alts -> (
    match Kernel.try_clause m.a m.ctx goal clause with
    | Kernel.R_fail ->
      undo_to m cp.cp_trail;
      rescan m cp below goal alts
    | resolved ->
      if alts = [] then pop m cp below
      else begin
        (* the retained choice point is updated in place with the
           shrunken alternative list *)
        cp.cp_alts <- Aclauses alts;
        m.a.stats.Stats.cp_updates <- m.a.stats.Stats.cp_updates + 1
      end;
      (match resolved with
      | Kernel.R_body (_ :: _ as items) ->
        run m ({ items; barrier = cp.cp_height } :: cp.cp_cont)
      | resolved -> continue m resolved cp.cp_cont))

(* {!Kernel.generator}: a fresh machine over the calling agent, on the
   evaluation's private trail. *)
let generate a (ctx : Builtins.ctx) start cont answer =
  let m =
    { trail = ctx.Builtins.trail; ctx; chaos = Chaos.null_agent; a; cps = [];
      height = 0 }
  in
  let rec loop found =
    if found then begin
      answer ();
      loop (backtrack m)
    end
  in
  loop (continue m start cont)

let () = Kernel.generator := generate

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

(* Solutions [n + 1 ..] up to [limit], newest first onto [acc].  A fired
   cancel token unwinds here like exhaustion: solutions already reported
   stay valid (each was complete when copied), the machine just stops
   producing more. *)
let rec collect m goal limit acc n =
  if n >= limit then acc
  else
    match
      if n = 0 then run m [ { items = Clause.compile_body goal; barrier = 0 } ]
      else backtrack m
    with
    | exception Cancel.Cancelled -> acc
    | false -> acc
    | true ->
      let stats = m.a.Kernel.stats in
      stats.Stats.solutions <- stats.Stats.solutions + 1;
      Kernel.record m.a Trace.Solution stats.Stats.solutions;
      collect m goal limit (Term.copy_resolved goal :: acc) (n + 1)

let solve (opts : Run.opts) table (config : Config.t) db goal =
  let t0 = Unix.gettimeofday () in
  let m = create opts table config db in
  let limit = Option.value config.Config.max_solutions ~default:max_int in
  let solutions = List.rev (collect m goal limit [] 0) in
  let stats = m.a.Kernel.stats in
  Kernel.finish opts ~t0 ~cycles:(Some m.a.Kernel.cycles) solutions stats
    (Ace_obs.Metrics.of_stats stats)
