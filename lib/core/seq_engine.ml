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
   computed against. *)

module Term = Ace_term.Term
module Trail = Ace_term.Trail
module Clause = Ace_lang.Clause
module Code = Ace_lang.Code
module Database = Ace_lang.Database
module Table = Ace_lang.Table
module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Chaos = Ace_sched.Chaos
module Trace = Ace_obs.Trace
module Prof = Ace_obs.Prof

type alts =
  | Aclauses of Clause.t list
      (* remaining candidate clauses, stored as the selection's own list
         so a nondeterminate call allocates no per-clause wrapper *)
  | Agoal of Clause.body (* right branch of a disjunction *)

type seg = { items : Clause.item list; barrier : int }
(* [barrier] is the choice-point stack height a cut in these items
   restores. *)

type cp = {
  cp_goal : Term.t option; (* None for disjunction choice points *)
  mutable cp_alts : alts;
  cp_cont : seg list;
  cp_trail : int;
  cp_height : int; (* stack height below this choice point *)
}

type t = {
  db : Database.t;
  table : Table.t; (* shared answer table for tabled predicates *)
  trail : Trail.t;
  ctx : Builtins.ctx;
  goal : Term.t;
  compile : bool; (* execute flat clause code instead of interpreting *)
  chaos : Chaos.agent;
    (* jitter charges extra abstract cycles at yield sites; answers must
       not depend on it (there is no concurrency here — the hook exists so
       the checker can assert cycle-jitter invariance uniformly) *)
  a : Kernel.agent;
    (* the kernel's view of the engine: cost table, the single stats
       shard, the compiled-code scratch, the profiler shard, the cancel
       token (polled at the call and backtrack chokepoints; {!Cancel.none}
       costs one physical-equality test there) and the abstract-cycle
       accumulator every charge is paid into, which also stamps trace
       events *)
  mutable cps : cp list;
  mutable height : int;
  mutable started : bool;
  mutable exhausted : bool;
}

let create ?(cost = Cost.default) ?(compile = false) ?output
    ?(trace = Trace.disabled) ?(chaos = Chaos.disabled)
    ?(prof = Prof.disabled) ?table ?(cancel = Cancel.none) db goal =
  let trail = Trail.create () in
  let a =
    Kernel.agent ~name:"the sequential engine" ~cost ~stats:(Stats.create ())
      ~cancel ~clock:Kernel.Cycles (Trace.buffer trace ~dom:0)
  in
  if Prof.enabled prof then
    a.prof <-
      Prof.shard prof ~dom:0 ~stats:a.stats ~clock:(fun () -> a.cycles) ();
  {
    db;
    table = (match table with Some t -> t | None -> Table.create ());
    trail;
    ctx = Builtins.make_ctx ?output ~trail ();
    goal;
    compile;
    chaos = Chaos.agent chaos 0;
    a;
    cps = [];
    height = 0;
    started = false;
    exhausted = false;
  }

let spend m n = m.a.cycles <- m.a.cycles + n

(* [mark] is the trail height the choice point restores on backtracking —
   the caller's mark from *before* any bindings the first taken
   alternative made (shallow backtracking pushes the choice point only
   after a head has already matched). *)
let push_cp m ~mark ~goal ~alts ~cont =
  spend m (Chaos.jitter m.chaos);
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
      cp_height = m.height;
    }
  in
  m.cps <- cp :: m.cps;
  m.height <- m.height + 1

let undo_to m mark = Kernel.untrail m.a m.trail mark

let cut m barrier =
  while m.height > barrier do
    match m.cps with
    | [] -> assert false
    | _ :: below ->
      m.cps <- below;
      m.height <- m.height - 1
  done

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
  match Kernel.exec_body m.a ~ctx:m.ctx xf with
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
    user_call_regs m sym arity (resume xf pc ~barrier cont)
  | Kernel.Ex_exec (sym, arity) ->
    (* Last call: the frame is dropped before the callee runs. *)
    user_call_regs m sym arity cont

and resume xf pc ~barrier cont =
  match Kernel.exec_cont xf pc [] with
  | [] -> cont
  | items -> { items; barrier } :: cont

and dispatch m g ~barrier cont =
  let g = Term.deref g in
  if Kernel.is_plain g then
    (* the hot case, allocation-free: a plain user or builtin call *)
    match Kernel.call_builtin m.a m.ctx g with
    | Builtins.Ok -> run m cont
    | Builtins.Fail -> backtrack m
    | Builtins.Not_builtin -> user_call m g cont
  else
    match Kernel.classify g with
    | Kernel.Cut ->
      cut m barrier;
      run m cont
    | Kernel.Conj g ->
      run m ({ items = Clause.compile_body g; barrier } :: cont)
    | Kernel.Ite (cond, then_, else_) ->
      if_then_else m cond then_ else_ ~barrier cont
    | Kernel.Disj (left, else_) ->
      push_cp m ~mark:(Trail.mark m.trail) ~goal:None
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
    | Kernel.Amp _ | Kernel.Sentinel _ | Kernel.Goal _ -> (
      (* dynamically built '&'/2 goals and the '$solution' sentinel are not
         part of this engine's language: both fall through to the database
         (and its existence error), as they always have *)
      match Kernel.call_builtin m.a m.ctx g with
      | Builtins.Ok -> run m cont
      | Builtins.Fail -> backtrack m
      | Builtins.Not_builtin -> user_call m g cont)

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
   by negation and if-then-else. *)
and solve_once m g =
  let saved_cps = m.cps and saved_height = m.height in
  m.cps <- [];
  m.height <- 0;
  let found = dispatch m g ~barrier:0 [] in
  m.cps <- saved_cps;
  m.height <- saved_height;
  found

and user_call m g cont =
  (* call chokepoint: a fired token unwinds out of [next] through the
     [Cancelled] handler, so no further (possibly wrong-under-
     cancellation) solution can be reported *)
  Cancel.check m.a.cancel;
  let clauses =
    (* tabled predicates are answered from the shared answer table; the
       kernel completes the subgoal first if needed and the pseudo-fact
       answers flow through the ordinary clause machinery below *)
    if Database.is_tabled_goal m.db g then
      Kernel.table_call m.a ~table:m.table ~ctx:m.ctx ~compiled:m.compile
        ~db:m.db g
    else Kernel.select m.a ~compiled:m.compile m.db g
  in
  match clauses with
  | [] -> backtrack m
  | [ clause ] ->
    (* Determinate after indexing: no choice point (the property LPCO and
       SPO key on in the parallel engines). *)
    continue m
      (Kernel.resolve m.a ~ctx:m.ctx ~compiled:m.compile ~trail:m.trail g
         clause)
      cont
  | clauses -> shallow m g clauses cont

(* Schedules what one clause try resolved to.  [R_exec] is the last-call
   case: the callee's arguments sit in the registers and nothing was
   stacked, so a determinate recursion bounces between [continue] and
   [user_call_regs] in constant space (both calls are tail calls). *)
and continue m resolved cont =
  match resolved with
  | Kernel.R_fail -> backtrack m
  | Kernel.R_body [] -> run m cont
  | Kernel.R_body items -> run m ({ items; barrier = m.height } :: cont)
  | Kernel.R_exec (sym, arity) -> user_call_regs m sym arity cont

(* A user call whose arguments live in the scratch registers: clause
   selection walks the dispatch tree straight from the register file.
   Only the nondeterminate case materializes a goal term — alternatives
   stored in a choice point must outlive the registers. *)
and user_call_regs m sym arity cont =
  Cancel.check m.a.cancel;
  if Database.is_tabled m.db sym arity then
    (* materialize the register call: tabled answers must outlive the
       registers, and the table keys on the goal term *)
    user_call m (Kernel.goal_of_regs sym arity m.a.sc.Code.s_regs) cont
  else
  match Kernel.select_args m.a m.db sym arity m.a.sc.Code.s_regs with
  | [] -> backtrack m
  | [ clause ] ->
    continue m
      (Kernel.try_code_args m.a ~ctx:m.ctx ~trail:m.trail m.a.sc.Code.s_regs
         clause)
      cont
  | clauses ->
    let g = Kernel.goal_of_regs sym arity m.a.sc.Code.s_regs in
    shallow m g clauses cont

(* Shallow backtracking (WAM-style): scan the candidates for the first
   one whose head matches before allocating a choice point, so clauses
   rejected by head unification cost no choice-point traffic.  The
   choice point — pushed only when a later alternative remains — records
   the pre-scan trail mark, since those alternatives must be retried
   from the caller's bindings. *)
and shallow m g clauses cont =
  let mark = Trail.mark m.trail in
  let rec scan = function
    | [] ->
      if Prof.live m.a.prof then Prof.fail m.a.prof (Prof.key_of_term g);
      backtrack m
    | clause :: rest -> (
      match
        Kernel.resolve m.a ~ctx:m.ctx ~compiled:m.compile ~trail:m.trail g
          clause
      with
      | Kernel.R_fail ->
        undo_to m mark;
        scan rest
      | resolved ->
        (* The choice point is pushed before [continue] consumes the
           resolution, so an [R_exec] callee's segments sit above it —
           its barrier (the pre-push height) is captured first.  A
           matched fact ([R_body []]) stacks nothing. *)
        let barrier = m.height in
        if rest <> [] then
          push_cp m ~mark ~goal:(Some g) ~alts:(Aclauses rest) ~cont;
        (match resolved with
        | Kernel.R_body (_ :: _ as items) -> run m ({ items; barrier } :: cont)
        | resolved -> continue m resolved cont))
  in
  scan clauses

and backtrack m =
  Cancel.check m.a.cancel;
  m.a.stats.Stats.backtracks <- m.a.stats.Stats.backtracks + 1;
  spend m (Chaos.jitter m.chaos);
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
      (* Shallow scan, as in [shallow]: head-rejected alternatives are
         dropped without re-entering the backtracker; the last matching
         alternative pops the choice point (WAM "trust"). *)
      let rec rescan = function
        | [] ->
          if Prof.live m.a.prof then Prof.fail m.a.prof (Prof.key_of_term goal);
          m.cps <- below;
          m.height <- m.height - 1;
          backtrack m
        | clause :: alts -> (
          match
            Kernel.resolve m.a ~ctx:m.ctx ~compiled:m.compile ~trail:m.trail
              goal clause
          with
          | Kernel.R_fail ->
            undo_to m cp.cp_trail;
            rescan alts
          | resolved ->
            if alts = [] then begin
              m.cps <- below;
              m.height <- m.height - 1
            end
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
      in
      rescan clauses
    | Agoal body ->
      undo_to m cp.cp_trail;
      spend m m.a.cost.Cost.cp_restore;
      (* a disjunction's right branch is its only alternative: trust *)
      m.cps <- below;
      m.height <- m.height - 1;
      run m ({ items = body; barrier = m.height } :: cp.cp_cont))

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let next m =
  if m.exhausted then None
  else begin
    let found =
      (* a fired cancel token unwinds here like exhaustion: solutions
         already reported stay valid (each was complete when copied),
         the machine just stops producing more *)
      match
        if not m.started then begin
          m.started <- true;
          run m [ { items = Clause.compile_body m.goal; barrier = 0 } ]
        end
        else backtrack m
      with
      | found -> found
      | exception Cancel.Cancelled -> false
    in
    if found then begin
      m.a.stats.Stats.solutions <- m.a.stats.Stats.solutions + 1;
      Kernel.record m.a Trace.Solution m.a.stats.Stats.solutions;
      Some (Term.copy_resolved m.goal)
    end
    else begin
      m.exhausted <- true;
      None
    end
  end

let rec collect m limit acc n =
  match limit with
  | Some l when n >= l -> List.rev acc
  | Some _ | None -> (
    match next m with
    | Some s -> collect m limit (s :: acc) (n + 1)
    | None -> List.rev acc)

let all_solutions ?limit m = collect m limit [] 0

(* Named query-variable bindings, snapshotted against backtracking. *)
let bindings _m vars =
  List.map (fun (name, v) -> (name, Term.copy_resolved (Term.Var v))) vars

let stats m = m.a.stats

let time m = m.a.cycles

let solve ?cost ?compile ?output ?trace ?chaos ?prof ?table ?cancel ?limit db
    goal =
  let m = create ?cost ?compile ?output ?trace ?chaos ?prof ?table ?cancel db
      goal
  in
  let solutions = all_solutions ?limit m in
  (solutions, m)
