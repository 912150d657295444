(* Hardware and+or parallel engine: the wall-clock twin of {!Or_engine}
   (which reproduces the paper's numbers on a deterministic simulator),
   extended with &ACE-style and-parallelism on OCaml 5 domains.

   Or-parallelism is the MUSE environment-copying model on a
   work-stealing scheduler.  Each worker (one per domain) owns a private
   machine — choice points, trail, its own term copies — and shares only
   the read-only database, so forward execution and local backtracking
   never synchronize.  Unexplored alternatives are published on demand:
   while some worker is hungry, a running worker snapshots its
   bottom-most live choice point (the biggest unexplored subtree) at its
   creation state — trail segment above its mark temporarily unwound,
   MUSE's incremental copy — into self-contained tasks on its deque,
   throttled by the hungry count so a saturated machine runs at
   private-backtracking speed with zero copies.  The paper's LAO schema
   is structural: taking the last alternative of an owned node trust-pops
   it and continues in place ([lao_hits]); only published nodes pay the
   copy.  Thieves steal oldest-first (biggest subtree); owners pop
   newest-first (cache-warm, no copy).

   And-parallelism ([config.par_and]): a parcall whose branches are
   strictly independent at runtime ({!Kernel.Parcall.slot_tuples})
   allocates a heap frame with one slot per branch; non-first slots are
   offered to thieves as [Slot] tasks through the same deques.  Each slot
   enumerates all its solutions on a private sub-machine, recording its
   free-variable tuple per solution; an empty slot fails the frame and
   kills the siblings (inside failure).  The join replays the cross
   product of recorded tuples through an ordinary — hence or-publishable
   — choice point whose alternatives are join rows, trading the paper's
   marker-per-slot recomputation for enumerate-once / join-by-unification
   with one atomic per slot.  Frame setup is guarded by the schemas:
   sequentialization below [seq_threshold], LPCO flattening of nested
   parcalls, SPO skipping the frame while nobody is hungry, and PDO
   steering the owner to the sequentially-next free slot.  Slot
   sub-machines do not or-publish (their solutions join locally); nested
   parcalls inside a slot do spawn further [Slot] tasks.

   Termination: an outstanding-task counter (root = 1, each published
   task one more), decremented when a task's subtree is exhausted; a
   [Slot] already run by its frame's owner is discarded on pop.  Idle
   workers spin with [Domain.cpu_relax] until the counter hits zero or a
   solution limit stops the run.  Cut / if-then-else / negation are
   rejected; solutions arrive through a mutex-guarded channel. *)

module Term = Ace_term.Term
module Trail = Ace_term.Trail
module Clause = Ace_lang.Clause
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Deque = Ace_sched.Deque
module Chaos = Ace_sched.Chaos
module Trace = Ace_obs.Trace
module Metrics = Ace_obs.Metrics
module Prof = Ace_obs.Prof
module Schema = Kernel.Schema

(* An alternative of a choice point: a program clause, or a recorded
   and-parallel join row to unify the tuple template against. *)
type alt =
  | Aclause of Clause.t
  | Acombo of Term.t

(* A task is a self-contained unit of work: or-tasks carry private
   copies; a [Slot] task is claimed by CAS (the frame owner may get
   there first, making the deque entry stale). *)
type task =
  | Root of Clause.body
  | Node of {
      n_goal : Term.t;       (* snapshot of the choice point's goal *)
      n_alts : alt list;     (* the untried alternatives, >= 1 *)
      n_cont : Clause.body;  (* snapshot of its continuation *)
    }
  | Slot of pslot

and pslot = {
  ps_state : int Atomic.t;  (* 0 = free, 1 = running, 2 = finished *)
  ps_frame : pframe;
  ps_body : Clause.body;
  ps_tuple : Term.t;  (* '$partuple' over the branch's free variables *)
  mutable ps_sols : Term.t list;
    (* recorded tuple snapshots, newest first; written only by the
       claiming worker, published to the owner by [ps_state := 2] *)
}

and pframe = {
  pf_id : int;
  pf_failed : bool Atomic.t;  (* inside failure: some slot had no solution *)
}

type cp = {
  cp_goal : Term.t;
  mutable cp_alts : alt list;
  cp_cont : Clause.body;
  cp_trail : int;
}

type shared = {
  config : Config.t;
  deques : task Deque.t array;
  hungry : int Atomic.t;      (* workers currently idle and stealing *)
  outstanding : int Atomic.t; (* tasks created but not yet exhausted *)
  frame_ids : int Atomic.t;
  cancel : Cancel.t;
    (* the generalized kill switch: polled through [stopped] at the same
       chokepoints as [stop], folded into [stop] once fired *)
  stop : bool Atomic.t;
  failure : exn option Atomic.t; (* first worker exception, re-raised *)
  sol_mutex : Mutex.t;
  mutable sols_rev : Term.t list; (* guarded by [sol_mutex] *)
  mutable sol_count : int;        (* guarded by [sol_mutex] *)
}

(* One resolution machine: the worker's root search, or a parcall slot's
   private enumeration.  Either way the state is private to the running
   worker. *)
type mach = {
  m_trail : Trail.t;
  m_ctx : Builtins.ctx;
  mutable m_cps : cp list; (* newest first *)
  mutable m_live : int;    (* choice points with untried alternatives *)
  m_slot : pslot option;   (* Some: slot enumeration (no or-publishing) *)
}

type worker = {
  w_id : int;
  sh : shared;
  shard : Metrics.shard;
    (* worker-private metrics; single-writer, aggregated after the join *)
  stats : Stats.t; (* alias of [shard.s_stats], for the hot-path updates *)
  out : Buffer.t option; (* worker-private output, appended after the join *)
  chaos : Chaos.agent;
    (* per-worker fault-injection stream ([Chaos.null_agent] when off) *)
  root : mach;
  k : Kernel.agent;
    (* the kernel's view of this domain, charging nothing: the database
       and the shared (locked) answer table, its stats shard, its trace
       ring ([Trace.null] when off), its profiler shard ([Prof.null] when
       off) and its frame buffer + argument registers, shared by the root
       machine and slot sub-machines (register use never spans a machine
       switch) *)
}

let stopped w =
  Atomic.get w.sh.stop
  || (Cancel.poll w.sh.cancel
      && begin
           (* fold into the atomic flag so siblings stop on their next
              check even if their own poll is decimated *)
           Atomic.set w.sh.stop true;
           true
         end)

(* A slot enumeration aborts as soon as a sibling fails the frame. *)
let aborted w m =
  stopped w
  ||
  match m.m_slot with
  | Some s -> Atomic.get s.ps_frame.pf_failed
  | None -> false

let make_mach slot output =
  let trail = Trail.create () in
  {
    m_trail = trail;
    m_ctx = Builtins.make_ctx ?output ~trail ();
    m_cps = [];
    m_live = 0;
    m_slot = slot;
  }

(* ------------------------------------------------------------------ *)
(* Publishing (the MUSE environment copy)                              *)
(* ------------------------------------------------------------------ *)

(* Bindings resolved away, unbound variables made fresh: the receiving
   worker needs no further setup.  [cells] counts copied cells. *)
let rec snapshot_term table cells t =
  incr cells;
  match Term.deref t with
  | (Term.Atom _ | Term.Int _) as t' -> t'
  | Term.Var v -> (
    match Hashtbl.find_opt table v.Term.vid with
    | Some v' -> Term.Var v'
    | None ->
      let v' = Term.fresh_var () in
      Hashtbl.add table v.Term.vid v';
      Term.Var v')
  | Term.Struct (f, args) ->
    Term.Struct (f, Array.map (snapshot_term table cells) args)

let rec snapshot_body table cells body =
  List.map
    (function
      | Clause.Call g -> Clause.Call (snapshot_term table cells g)
      | Clause.Exec xf ->
        (* the environment is copied cell-wise through the same table, so
           variables shared between the frame and the rest of the
           continuation stay shared in the copy *)
        Clause.Exec
          {
            xf with
            Clause.xf_env =
              Array.map (snapshot_term table cells) xf.Clause.xf_env;
          }
      | Clause.Par bodies ->
        Clause.Par (List.map (snapshot_body table cells) bodies))
    body

let snapshot_alt table cells = function
  | Aclause c -> Aclause c (* clause templates are immutable and shared *)
  | Acombo row -> Acombo (snapshot_term table cells row)

(* A worker publishes only from its root machine (slot solutions are
   joined locally), and only while someone is hungry and its deque is not
   already stocked for them: bounded copying, zero when saturated.  Chaos
   may veto an otherwise due publish (a delayed publish — the work stays
   private and a later opportunity ships it). *)
let should_publish w m =
  m.m_slot = None && m.m_live > 0
  && (let h = Atomic.get w.sh.hungry in
      h > 0 && Deque.length w.sh.deques.(w.w_id) < h)
  && not (Chaos.publish_delayed w.chaos)

(* Snapshots the bottom-most choice point whose untried-alternative count
   reaches the configured grain, at its creation state (trail segment above
   its mark temporarily unwound — the incremental copy), and pushes its
   alternatives as one task, private to whichever worker takes it.  The
   node itself becomes exhausted for the owner.  Nodes below the grain are
   skipped — they stay reserved for private (cheap) backtracking. *)
let publish w m =
  let config = w.sh.config in
  let rec last_live skipped acc = function
    | [] -> (skipped, acc)
    | cp :: rest ->
      if cp.cp_alts = [] then last_live skipped acc rest
      else if Schema.publish_grain config ~nalts:(List.length cp.cp_alts) then
        last_live skipped (Some cp) rest
      else last_live (skipped + 1) acc rest
  in
  match last_live 0 None m.m_cps with
  | skipped, None ->
    if skipped > 0 then begin
      w.stats.Stats.publish_skipped_small <-
        w.stats.Stats.publish_skipped_small + 1;
      Trace.record w.k.tbuf Trace.Publish_skip skipped
    end
  | _, Some cp ->
    let seg = Trail.segment m.m_trail ~lo:cp.cp_trail ~hi:(Trail.size m.m_trail) in
    let saved = Array.map (fun (v : Term.var) -> v.Term.binding) seg in
    Array.iter (fun (v : Term.var) -> v.Term.binding <- None) seg;
    let table = Hashtbl.create 64 in
    let cells = ref 0 in
    let goal = snapshot_term table cells cp.cp_goal in
    let n_alts = List.map (snapshot_alt table cells) cp.cp_alts in
    let cont = snapshot_body table cells cp.cp_cont in
    w.stats.Stats.copies <- w.stats.Stats.copies + 1;
    w.stats.Stats.copied_cells <- w.stats.Stats.copied_cells + !cells;
    if Prof.live w.k.prof then Prof.copied w.k.prof !cells;
    Metrics.hist_add w.shard.Metrics.s_copy_cells !cells;
    Trace.record w.k.tbuf Trace.Copy !cells;
    Array.iteri (fun i (v : Term.var) -> v.Term.binding <- saved.(i)) seg;
    cp.cp_alts <- [];
    m.m_live <- m.m_live - 1;
    if Prof.live w.k.prof then Prof.spawned w.k.prof 1;
    Trace.record w.k.tbuf Trace.Publish 1;
    Trace.record w.k.tbuf Trace.Task_spawn (List.length n_alts);
    Atomic.incr w.sh.outstanding;
    (* forced preemption between the accounting and the push widens the
       window in which thieves observe outstanding > 0 with an empty
       deque — the termination-detection corner under test *)
    Chaos.preempt w.chaos;
    Deque.push_bottom w.sh.deques.(w.w_id)
      (Node { n_goal = goal; n_alts; n_cont = cont })

(* ------------------------------------------------------------------ *)
(* Resolution (private, no synchronization)                            *)
(* ------------------------------------------------------------------ *)

let try_alt w m goal = function
  | Aclause clause -> Kernel.try_clause w.k m.m_ctx goal clause
  | Acombo row ->
    (* join replay: bind the tuple template to one cross-product row *)
    if Kernel.unify_goal w.k ~trail:m.m_trail goal row then Kernel.R_body []
    else Kernel.R_fail

let push_cp w m ~goal ~alts ~cont =
  w.stats.Stats.cp_allocs <- w.stats.Stats.cp_allocs + 1;
  w.stats.Stats.stack_words <-
    w.stats.Stats.stack_words + Ace_machine.Cost.words_choice_point;
  m.m_cps <-
    { cp_goal = goal; cp_alts = alts; cp_cont = cont; cp_trail = Trail.mark m.m_trail }
    :: m.m_cps;
  if alts <> [] then m.m_live <- m.m_live + 1

let record_solution w goal =
  let s = Term.copy_resolved goal in
  (* delayed publish of the solution itself: preempt before taking the
     lock, letting other domains race the limit check *)
  Chaos.preempt w.chaos;
  let sh = w.sh in
  Mutex.lock sh.sol_mutex;
  let accepted =
    match sh.config.Config.max_solutions with
    | Some limit when sh.sol_count >= limit -> false
    | Some limit ->
      sh.sols_rev <- s :: sh.sols_rev;
      sh.sol_count <- sh.sol_count + 1;
      if sh.sol_count >= limit then Atomic.set sh.stop true;
      true
    | None ->
      sh.sols_rev <- s :: sh.sols_rev;
      sh.sol_count <- sh.sol_count + 1;
      true
  in
  Mutex.unlock sh.sol_mutex;
  if accepted then begin
    w.stats.Stats.solutions <- w.stats.Stats.solutions + 1;
    Trace.record w.k.tbuf Trace.Solution 0
  end

let rec run_mach w m (cont : Clause.body) : unit =
  if aborted w m then ()
  else
    match cont with
    | [] ->
      (* root: only reachable without the sentinel — treat as done.
         Slot: one complete solution of the branch — record its tuple. *)
      (match m.m_slot with
       | Some s -> s.ps_sols <- Term.copy_resolved s.ps_tuple :: s.ps_sols
       | None -> ());
      backtrack w m
    | Clause.Par bodies :: rest -> exec_parcall w m bodies rest
    | Clause.Call g :: rest -> dispatch w m g rest
    | Clause.Exec xf :: rest -> exec_frame w m xf rest

(* Resumes a compiled clause body from its saved pc.  No environment
   trimming here: choice points of this machine may resume the frame at
   an earlier pc, and published snapshots may replay it. *)
and exec_frame w m xf cont =
  match Kernel.exec_body w.k m.m_ctx xf with
  | Kernel.Ex_fail -> backtrack w m
  | Kernel.Ex_done -> run_mach w m cont
  | Kernel.Ex_goal (g, pc) -> dispatch w m g (Kernel.exec_cont xf pc cont)
  | Kernel.Ex_par (bodies, pc) ->
    exec_parcall w m bodies (Kernel.exec_cont xf pc cont)
  | Kernel.Ex_call (sym, arity, pc, _live) ->
    call_regs w m sym arity (Kernel.exec_cont xf pc cont)
  | Kernel.Ex_exec ->
    call_regs w m w.k.Kernel.callee w.k.Kernel.callee_arity cont

(* Schedules what a step or one clause try came to; [R_exec] steps the
   registers directly (last-call optimization).  Several candidates get
   a (publishable) choice point before the first is tried.  Tabled
   predicates answer from the shared (locked) table: workers never block
   on each other — concurrent callers evaluate redundantly and
   deduplicate through it. *)
and continue w m resolved cont =
  match resolved with
  | Kernel.R_fail -> backtrack w m
  | Kernel.R_body body -> run_mach w m (body @ cont)
  | Kernel.R_exec ->
    call_regs w m w.k.Kernel.callee w.k.Kernel.callee_arity cont
  | Kernel.R_alts -> (
    let g = w.k.Kernel.goal in
    match w.k.Kernel.alts with
    | clause :: rest ->
      push_cp w m ~goal:g ~alts:(List.map (fun c -> Aclause c) rest) ~cont;
      if should_publish w m then publish w m;
      continue w m (Kernel.try_clause w.k m.m_ctx g clause) cont
    | [] -> assert false (* [R_alts] leaves at least two candidates *))
  | Kernel.R_control | Kernel.R_answers _ | Kernel.R_consume _ ->
    assert false (* [dispatch] takes control; readers: generators only *)

and call_regs w m sym arity cont =
  if aborted w m then ()
  else continue w m (Kernel.step_regs w.k m.m_ctx sym arity) cont

and dispatch w m g cont =
  match Kernel.step w.k m.m_ctx g with
  | Kernel.R_control -> (
    match Kernel.classify g with
    | Kernel.Sentinel goal ->
      record_solution w goal;
      backtrack w m (* report-and-fail drives the full search *)
    | Kernel.Conj g | Kernel.Amp g ->
      run_mach w m (Clause.compile_body g @ cont)
    | Kernel.Meta g -> dispatch w m g cont
    | Kernel.Cut | Kernel.Disj _ | Kernel.Ite _ | Kernel.Naf _
    | Kernel.Goal _ ->
      Kernel.unsupported w.k g)
  | resolved -> continue w m resolved cont

(* Private backtracking.  Taking the last alternative of an owned node
   trust-pops it and continues in place — the engine's structural LAO. *)
and backtrack w m =
  w.stats.Stats.backtracks <- w.stats.Stats.backtracks + 1;
  if aborted w m then ()
  else begin
    Chaos.preempt w.chaos;
    if should_publish w m then publish w m;
    match m.m_cps with
    | [] -> () (* machine exhausted; the worker/slot loop takes over *)
    | cp :: below -> (
      w.stats.Stats.bt_nodes_visited <- w.stats.Stats.bt_nodes_visited + 1;
      match cp.cp_alts with
      | [] ->
        (* published or spent node: pop and keep unwinding *)
        if Prof.live w.k.prof then
          Prof.fail w.k.prof (Prof.key_of_term cp.cp_goal);
        m.m_cps <- below;
        backtrack w m
      | alt :: rest ->
        if Prof.live w.k.prof then
          Prof.redo w.k.prof (Prof.key_of_term cp.cp_goal);
        w.stats.Stats.untrails <-
          w.stats.Stats.untrails + Trail.undo_to m.m_trail cp.cp_trail;
        if rest = [] then begin
          m.m_cps <- below;
          m.m_live <- m.m_live - 1;
          w.stats.Stats.lao_hits <- w.stats.Stats.lao_hits + 1;
          Trace.record w.k.tbuf Trace.Lao_hit 0
        end
        else begin
          cp.cp_alts <- rest;
          w.stats.Stats.cp_updates <- w.stats.Stats.cp_updates + 1
        end;
        continue w m (try_alt w m cp.cp_goal alt) cp.cp_cont)
  end

(* ------------------------------------------------------------------ *)
(* And-parallel parcall frames                                         *)
(* ------------------------------------------------------------------ *)

(* Enumerates one slot to exhaustion on a private sub-machine.  Runs on
   whichever worker claimed the slot (owner in place, or a thief through
   a [Slot] task). *)
and run_pslot w s =
  Trace.record w.k.tbuf Trace.Task_start s.ps_frame.pf_id;
  w.stats.Stats.task_switches <- w.stats.Stats.task_switches + 1;
  let m = make_mach (Some s) w.out in
  run_mach w m s.ps_body;
  ignore (Trail.undo_to m.m_trail 0);
  if s.ps_sols = [] && not (stopped w) then begin
    (* inside failure (or a sibling already failed): kill the frame *)
    Atomic.set s.ps_frame.pf_failed true;
    w.stats.Stats.kills <- w.stats.Stats.kills + 1
  end;
  Atomic.set s.ps_state 2;
  Trace.record w.k.tbuf Trace.Task_finish s.ps_frame.pf_id

(* A parallel conjunction.  Without [par_and] (or when a schema decision
   says so) it runs as a plain sequential conjunction on the current
   machine. *)
and exec_parcall w m bodies cont =
  let config = w.sh.config in
  let sequential () = run_mach w m (List.concat bodies @ cont) in
  if not config.Config.par_and then sequential ()
  else if
    config.Config.seq_threshold > 0 && Schema.sequentialize config bodies
  then begin
    w.stats.Stats.seq_hits <- w.stats.Stats.seq_hits + 1;
    sequential ()
  end
  else begin
    let bodies, splices = Schema.lpco_flatten config bodies in
    if splices > 0 then begin
      w.stats.Stats.lpco_hits <- w.stats.Stats.lpco_hits + splices;
      w.stats.Stats.frames_avoided <- w.stats.Stats.frames_avoided + splices;
      Trace.record w.k.tbuf Trace.Lpco_hit splices
    end;
    let sequential () = run_mach w m (List.concat bodies @ cont) in
    if Schema.spo_inline config ~hungry:(Atomic.get w.sh.hungry) then begin
      (* SPO, procrastinated to frame granularity: nobody to share with,
         so skip the parcall-frame setup entirely *)
      w.stats.Stats.spo_hits <- w.stats.Stats.spo_hits + 1;
      w.stats.Stats.frames_avoided <- w.stats.Stats.frames_avoided + 1;
      Trace.record w.k.tbuf Trace.Spo_hit 0;
      sequential ()
    end
    else
      match Kernel.Parcall.slot_tuples bodies with
      | None -> sequential () (* shared variable: not strictly independent *)
      | Some tuples when Array.length tuples < 2 -> sequential ()
      | Some tuples -> run_parcall w m bodies tuples cont
  end

and run_parcall w m bodies tuples cont =
  let n = Array.length tuples in
  let fr =
    { pf_id = Atomic.fetch_and_add w.sh.frame_ids 1;
      pf_failed = Atomic.make false }
  in
  let bodies = Array.of_list bodies in
  let slots =
    Array.init n (fun i ->
        {
          ps_state = Atomic.make (if i = 0 then 1 else 0);
          ps_frame = fr;
          ps_body = bodies.(i);
          ps_tuple = tuples.(i);
          ps_sols = [];
        })
  in
  w.stats.Stats.frames <- w.stats.Stats.frames + 1;
  w.stats.Stats.slots <- w.stats.Stats.slots + n;
  (if Prof.live w.k.prof then begin
     Prof.slots w.k.prof n;
     Prof.spawned w.k.prof (n - 1)
   end);
  (* Offer every non-first slot to the thieves.  Pushed highest-index
     first so the oldest deque entry (what a thief steals first) is the
     slot farthest from the owner's own PDO-ordered claims. *)
  for i = n - 1 downto 1 do
    Atomic.incr w.sh.outstanding;
    Trace.record w.k.tbuf Trace.Task_spawn fr.pf_id;
    Chaos.preempt w.chaos;
    Deque.push_bottom w.sh.deques.(w.w_id) (Slot slots.(i))
  done;
  (* The owner runs slot 0 in place (no markers, as in the paper), then
     claims whatever is still free, sequentially-next slot first. *)
  run_pslot w slots.(0);
  let config = w.sh.config in
  let last = ref (Some (fr.pf_id, 0)) in
  let claim i = Atomic.compare_and_set slots.(i).ps_state 0 1 in
  let rec help () =
    if stopped w then ()
    else begin
      let next = match !last with Some (_, i) -> i + 1 | None -> n in
      let pick =
        if
          next < n
          && Schema.pdo_contiguous config ~last:!last ~next:(fr.pf_id, next)
          && claim next
        then begin
          w.stats.Stats.pdo_hits <- w.stats.Stats.pdo_hits + 1;
          Trace.record w.k.tbuf Trace.Pdo_hit fr.pf_id;
          Some next
        end
        else begin
          let rec scan i =
            if i >= n then None else if claim i then Some i else scan (i + 1)
          in
          scan 1
        end
      in
      match pick with
      | Some i ->
        run_pslot w slots.(i);
        last := Some (fr.pf_id, i);
        help ()
      | None ->
        (* every slot claimed; wait for stragglers on other domains *)
        let rec wait i =
          if i >= n || stopped w then ()
          else if Atomic.get slots.(i).ps_state = 2 then wait (i + 1)
          else begin
            Chaos.preempt w.chaos;
            Domain.cpu_relax ();
            wait i
          end
        in
        wait 0
    end
  in
  help ();
  if stopped w then ()
  else if Atomic.get fr.pf_failed then backtrack w m
  else begin
    (* Join: replay the cross product of the recorded tuples, rightmost
       slot fastest (the sequential enumeration order).  The rows become
       ordinary choice-point alternatives, so a wide cross product is
       or-publishable like any other node. *)
    let rows = Kernel.Parcall.cross (Array.map (fun s -> List.rev s.ps_sols) slots) in
    match rows with
    | [] -> backtrack w m
    | first :: rest ->
      let template = Kernel.Parcall.template tuples in
      if rest <> [] then begin
        push_cp w m ~goal:template ~alts:(List.map (fun r -> Acombo r) rest) ~cont;
        if should_publish w m then publish w m
      end;
      if Kernel.unify_goal w.k ~trail:m.m_trail template first then
        run_mach w m cont
      else backtrack w m
  end

(* ------------------------------------------------------------------ *)
(* Worker loop: run, pop own deque, steal                              *)
(* ------------------------------------------------------------------ *)

let run_task w task =
  let t0 = Trace.now_ns w.k.tbuf in
  let ran =
    match task with
    | Root body ->
      Trace.record_at w.k.tbuf ~ts:t0 Trace.Task_start 0;
      run_mach w w.root body;
      (* reset private state (relevant after an early stop) *)
      ignore (Trail.undo_to w.root.m_trail 0);
      w.root.m_cps <- [];
      w.root.m_live <- 0;
      true
    | Node { n_goal; n_alts; n_cont } ->
      Trace.record_at w.k.tbuf ~ts:t0 Trace.Task_start 0;
      (match n_alts with
       | [] -> ()
       | first :: rest ->
         if rest <> [] then
           push_cp w w.root ~goal:n_goal ~alts:rest ~cont:n_cont;
         continue w w.root (try_alt w w.root n_goal first) n_cont);
      ignore (Trail.undo_to w.root.m_trail 0);
      w.root.m_cps <- [];
      w.root.m_live <- 0;
      true
    | Slot s ->
      (* claim by CAS: the frame owner may have run it already, leaving a
         stale deque entry to discard *)
      if Atomic.compare_and_set s.ps_state 0 1 then begin
        run_pslot w s;
        true
      end
      else false
  in
  if ran then begin
    let dt = Trace.now_ns w.k.tbuf - t0 in
    w.shard.Metrics.s_busy_ns <- w.shard.Metrics.s_busy_ns + dt;
    Metrics.hist_add w.shard.Metrics.s_task_ns dt;
    Trace.record w.k.tbuf Trace.Task_finish 0
  end;
  Atomic.decr w.sh.outstanding

let rec main_loop w =
  if stopped w then ()
  else
    match Deque.pop_bottom w.sh.deques.(w.w_id) with
    | Some task ->
      (* re-acquiring own published work: no re-dispatch, no copy *)
      run_task w task;
      main_loop w
    | None -> steal_loop w

and steal_loop w =
  let sh = w.sh in
  let t0 = Trace.now_ns w.k.tbuf in
  Trace.record_at w.k.tbuf ~ts:t0 Trace.Idle_begin 0;
  let end_idle () =
    let dt = Trace.now_ns w.k.tbuf - t0 in
    w.shard.Metrics.s_idle_ns <- w.shard.Metrics.s_idle_ns + dt;
    Trace.record w.k.tbuf Trace.Idle_end 0
  in
  Atomic.incr sh.hungry;
  let p = Array.length sh.deques in
  let rec poll misses =
    if stopped w || Atomic.get sh.outstanding = 0 then begin
      Atomic.decr sh.hungry;
      end_idle ()
    end
    else begin
      let rec try_victims k =
        if k >= p then None
        else
          let victim = (w.w_id + 1 + k) mod p in
          (* injected steal failure: skip this victim as if empty; the
             task stays in the deque for a later attempt, so nothing is
             lost — only the acquisition order is perturbed *)
          if Chaos.steal_blocked w.chaos then try_victims (k + 1)
          else
            match Deque.steal_top sh.deques.(victim) with
            | Some task -> Some (victim, task)
            | None -> try_victims (k + 1)
      in
      match try_victims 0 with
      | Some (victim, task) ->
        Atomic.decr sh.hungry;
        w.stats.Stats.steals <- w.stats.Stats.steals + 1;
        (if Prof.live w.k.prof then
           match task with
           | Node { n_goal; _ } ->
             let k = Prof.key_of_term n_goal in
             Prof.stole w.k.prof k;
             Prof.redo w.k.prof k
           | Slot s -> (
             match s.ps_body with
             | Clause.Call g :: _ ->
               let k = Prof.key_of_term g in
               Prof.stole w.k.prof k;
               Prof.redo w.k.prof k
             | _ -> ())
           | Root _ -> ());
        Metrics.hist_add w.shard.Metrics.s_steal_tries (misses + 1);
        end_idle ();
        Trace.record w.k.tbuf Trace.Steal victim;
        (* preempt between grabbing the task and running it: the thief
           holds work while looking idle to the hungry counter *)
        Chaos.preempt w.chaos;
        run_task w task;
        main_loop w
      | None ->
        w.stats.Stats.polls <- w.stats.Stats.polls + 1;
        (* spin briefly, then sleep: on an oversubscribed host a spinning
           thief would steal timeslices from the worker producing its
           food *)
        if misses < 64 then Domain.cpu_relax ()
        else Unix.sleepf (if misses < 256 then 5e-5 else 5e-4);
        poll (misses + 1)
    end
  in
  poll 0

(* Runs worker [w] to the end on the current domain and counts that
   domain's allocation meanwhile into the worker's shard. *)
let worker_main w =
  let mark = Stats.alloc_mark () in
  (try main_loop w with
   | Cancel.Cancelled ->
     (* the kernel's tabling chokepoint unwound this worker: an orderly
        stop, not a failure — solutions already published stand *)
     Atomic.set w.sh.stop true
   | e ->
     (* first failure wins; stop the others and re-raise after the join *)
     ignore (Atomic.compare_and_set w.sh.failure None (Some e));
     Atomic.set w.sh.stop true);
  Stats.add_alloc_since w.stats mark

(* The spawn that worker domains start with.  A test seam, never set
   outside tests: a test swaps in a spawn that fails, to check that a
   failed spawn leaves no domain running. *)
let spawn : ((unit -> unit) -> unit Domain.t) ref = ref Domain.spawn

(* Starts workers 1 .. p-1 on domains of their own.  If a spawn fails,
   the domains already started, which may have stolen the root from
   deque 0 and be running the query, are stopped and joined before the
   failure propagates: no domain outlives the run. *)
let spawn_workers sh workers =
  let started = ref [] in
  match
    for i = 1 to Array.length workers - 1 do
      started := !spawn (fun () -> worker_main workers.(i)) :: !started
    done
  with
  | () -> !started
  | exception e ->
    Atomic.set sh.stop true;
    List.iter Domain.join !started;
    raise e

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let solve (opts : Run.opts) table (config : Config.t) db goal =
  let t0 = Unix.gettimeofday () in
  let p = config.Config.agents in
  let metrics = Metrics.create ~domains:p in
  let sh =
    {
      config;
      deques = Array.init p (fun _ -> Deque.create ());
      hungry = Atomic.make 0;
      outstanding = Atomic.make 1;
      frame_ids = Atomic.make 0;
      cancel = opts.Run.cancel;
      stop = Atomic.make false;
      failure = Atomic.make None;
      sol_mutex = Mutex.create ();
      sols_rev = [];
      sol_count = 0;
    }
  in
  let output = opts.Run.output in
  let workers =
    Array.init p (fun i ->
        let out =
          match output with None -> None | Some _ -> Some (Buffer.create 64)
        in
        let shard = Metrics.shard metrics i in
        let k =
          Kernel.agent opts ~name:"the multicore engine" ~clock:Kernel.Wall
            ~cost:config.Config.cost ~stats:shard.Metrics.s_stats ~db ~table
            ~compiled:true ~dom:i
        in
        {
          w_id = i;
          sh;
          shard;
          stats = k.Kernel.stats;
          out;
          chaos = Chaos.agent opts.Run.chaos i;
          root = make_mach None out;
          k;
        })
  in
  Deque.push_bottom sh.deques.(0) (Root (Kernel.sentinel_body goal));
  let domains = spawn_workers sh workers in
  worker_main workers.(0);
  List.iter Domain.join domains;
  (match Atomic.get sh.failure with Some e -> raise e | None -> ());
  (* the domains have joined: aggregating the single-writer shards is safe
     from here on (see the Stats.merge_into ownership contract) *)
  let stats = Metrics.total metrics in
  (* solutions were counted per worker and merged; keep the shared total *)
  stats.Stats.solutions <- sh.sol_count;
  (match output with
   | None -> ()
   | Some buf ->
     Array.iter
       (fun w ->
         match w.out with
         | Some b -> Buffer.add_buffer buf b
         | None -> ())
       workers);
  Kernel.finish opts ~t0 ~cycles:None (List.rev sh.sols_rev) stats metrics
