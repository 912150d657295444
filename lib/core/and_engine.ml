(* The and-parallel engine (&ACE).

   Mirrors the abstract machine of the paper's Figure 2: a parallel
   conjunction allocates a *parcall frame* with one slot per subgoal; idle
   agents steal slots; a stolen subgoal is delimited by an *input marker*
   and an *end marker* on the executing agent's stack.  Local
   nondeterminism inside a subgoal is handled by ordinary backtracking over
   choice points private to that subgoal's execution.

   Execution records ("execs").  Every subgoal execution owns a private
   trail and a private backtrack stack, so undoing one subgoal never has to
   skip over another agent's bindings — this plays the structural role of
   the paper's stack sections delimited by markers, while the *costs* of
   markers and of traversing them are charged explicitly from the cost
   model (and skipped when an optimization removes them).

   Independence semantics.  Subgoals of a parcall are assumed strictly
   independent (the paper's &ACE condition, established by annotation):
   - inside failure: if a subgoal fails outright, the whole parcall fails
     (siblings are killed) — re-trying a left sibling could not revive it;
   - outside backtracking: retry the rightmost slot with alternatives and
     *recompute* the slots to its right in parallel.

   Optimizations (all runtime-triggered, per the paper):
   - LPCO (§3.1): a determinate slot whose body *ends* in a parallel
     conjunction splices the nested subgoals into the enclosing frame as
     fresh slots inserted right after it, instead of allocating a nested
     frame.
   - SPO (§4.1): the input marker of a stolen subgoal is procrastinated
     until the subgoal is about to create a choice point; a subgoal that
     completes deterministically allocates no markers at all (only its
     trail section, recorded in the slot, is kept for later undoing).
   - PDO (§4.2): when the scheduler hands an agent the sequentially-next
     slot of the frame it just finished a slot of, no markers are placed
     between the two computations. *)

module Term = Ace_term.Term
module Trail = Ace_term.Trail
module Clause = Ace_lang.Clause
module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Sim = Ace_sched.Sim
module Chaos = Ace_sched.Chaos
module Trace = Ace_obs.Trace
module Prof = Ace_obs.Prof

type acp = {
  a_goal : Term.t;
  mutable a_alts : Clause.t list;
  a_cont : Clause.item list;
  a_trail : int;
}

type entry =
  | Ecp of acp
  | Eframe of frame * int
    (* the int is the trail mark of the enclosing exec at the moment the
       frame completed: bindings made by the continuation after the parcall
       must be undone before outside-backtracking into the frame *)

and exec = {
  x_trail : Trail.t;
  x_ctx : Builtins.ctx; (* the builtin context over [x_trail] *)
  mutable x_stack : entry list; (* newest first *)
  x_slot : slot option;         (* the slot this exec runs; None for root *)
  mutable x_input_marker : bool;
  mutable x_end_marker : bool;
  mutable x_marker_pending : bool; (* SPO: input marker procrastinated *)
  mutable x_det : bool;
    (* no choice point was created and no nested frame retains
       alternatives: backtracking over this execution is pure untrailing,
       so SPO may omit its markers *)
}

and frame = {
  f_id : int;
  mutable f_nondet : bool; (* some slot execution retains alternatives *)
  f_depth : int; (* 1 = outermost parcall *)
  f_parent : exec;
  f_owner : int; (* agent that allocated the frame *)
  mutable f_slots : slot array;
  mutable f_nslots : int;
  mutable f_pending : int; (* slots not yet Sdone *)
  mutable f_failing : bool;
  f_cont : Clause.item list; (* continuation after the parcall *)
}

and slot = {
  sl_frame : frame;
  mutable sl_index : int;
  sl_body : Clause.body;
  mutable sl_state : slot_state;
  mutable sl_exec : exec option;
  mutable sl_no_input : bool; (* slot 0 run in place by the owner *)
  mutable sl_spliced : slot list;
    (* LPCO: slots this (delegated) slot spliced into the frame; they leave
       the frame with it when it is reset for recomputation, and reappear
       when its re-execution splices again *)
}

and slot_state = Sfree | Srunning of int | Sdone | Sfailed | Skilled

exception Killed
(* Raised inside an agent when the frame of the slot it is executing (or an
   ancestor frame) starts failing; unwinds to [run_slot]. *)

type agent_state = {
  ag_id : int;
  mutable ag_last_done : slot option; (* for the PDO contiguity check *)
  mutable ag_pending_end : slot option; (* PDO: procrastinated end marker *)
}

type t = {
  config : Config.t;
  cost : Cost.t;
  ks : Kernel.agent array;
    (* the kernel's view of each simulated agent: the database and answer
       table, its stats shard, trace ring and profiler shard, charges
       ticking the simulator *)
  chaos : Chaos.agent array; (* per-agent schedule-jitter streams *)
  sim : Sim.t;
  output : Buffer.t option;
  agents : agent_state array;
  mutable pool : frame list; (* frames that may have free slots, oldest first *)
  mutable frame_counter : int;
  cancel : Cancel.t;
    (* polled at the exec/backtrack chokepoints and the steal loop; once
       fired the run stops like a satisfied solution limit *)
  mutable finished : bool;
  mutable sol_count : int; (* global solution count (shards hold per-agent) *)
  mutable solutions : Term.t list; (* newest first *)
  goal : Term.t;
}

(* ------------------------------------------------------------------ *)
(* Charging helpers                                                    *)
(* ------------------------------------------------------------------ *)

let charge (_st : t) n = Sim.tick n

(* Counter updates are attributed to the agent the simulator is currently
   stepping: the coroutines run on one OS thread, so the "current agent"
   is exact at every update site (interleaving happens only at ticks). *)
let cur st =
  let c = Sim.current_agent st.sim in
  if c < 0 then 0 else c

let ka st = st.ks.(cur st)
let shard st = (ka st).stats
let psh st = (ka st).prof

(* Events are stamped with the virtual clock, so an exported trace shows
   the simulated schedule. *)
let record_ev st kind arg = Kernel.record (ka st) kind arg

(* Schedule-exploration yield site (see {!Or_engine.chaos_yield}): seeded
   extra virtual cycles deterministically select alternative interleavings.
   Never called between a state read and the claim that depends on it. *)
let chaos_yield st =
  let j = Chaos.jitter st.chaos.(cur st) in
  if j > 0 then Sim.tick j

let charge_cp_alloc st =
  charge st st.cost.Cost.cp_alloc;
  (shard st).Stats.cp_allocs <- (shard st).Stats.cp_allocs + 1;
  (shard st).Stats.stack_words <-
    (shard st).Stats.stack_words + Cost.words_choice_point

let charge_marker st ~input =
  charge st st.cost.Cost.marker_alloc;
  (shard st).Stats.stack_words <- (shard st).Stats.stack_words + Cost.words_marker;
  if input then (shard st).Stats.input_markers <- (shard st).Stats.input_markers + 1
  else (shard st).Stats.end_markers <- (shard st).Stats.end_markers + 1

(* Cancellation observed at a chokepoint: stop the simulation (pending
   coroutines are abandoned mid-flight, as on a solution limit) and
   unwind the current agent with [Cancel.Cancelled], caught at its body
   top — no failure path runs under a fired token, so the solutions
   already recorded stay exactly the ones completed before the abort. *)
let check_cancel st =
  if Cancel.poll st.cancel then begin
    st.finished <- true;
    Sim.stop st.sim;
    raise Cancel.Cancelled
  end

let charge_bt_node st =
  charge st st.cost.Cost.backtrack_node;
  (shard st).Stats.bt_nodes_visited <- (shard st).Stats.bt_nodes_visited + 1

(* ------------------------------------------------------------------ *)
(* Exec and frame bookkeeping                                          *)
(* ------------------------------------------------------------------ *)

let make_exec st slot =
  let trail = Trail.create () in
  {
    x_trail = trail;
    x_ctx = Builtins.make_ctx ?output:st.output ~trail ();
    x_stack = [];
    x_slot = slot;
    x_input_marker = false;
    x_end_marker = false;
    x_marker_pending = false;
    x_det = true;
  }

(* Fully undoes an execution: its own bindings plus, recursively, every
   nested frame still hanging on its backtrack stack.  Charges traversal
   per node crossed — this is the overhead LPCO's flattening removes. *)
let rec undo_exec st exec =
  List.iter
    (fun entry ->
      charge_bt_node st;
      match entry with
      | Ecp _ -> ()
      | Eframe (f, _) -> undo_frame st f)
    exec.x_stack;
  exec.x_stack <- [];
  Kernel.untrail (ka st) exec.x_trail 0;
  (* crossing this exec's markers (if it has any) costs a node each *)
  if exec.x_input_marker then charge_bt_node st;
  if exec.x_end_marker then charge_bt_node st

and undo_frame st frame =
  charge st st.cost.Cost.frame_unwind;
  for i = 0 to frame.f_nslots - 1 do
    let slot = frame.f_slots.(i) in
    (match slot.sl_exec with
     | Some exec -> undo_exec st exec
     | None -> ());
    slot.sl_exec <- None;
    slot.sl_state <- Sfree
  done;
  frame.f_pending <- frame.f_nslots

let unregister_frame st frame =
  st.pool <- List.filter (fun f -> f.f_id <> frame.f_id) st.pool

let register_frame st frame =
  if not (List.exists (fun f -> f.f_id = frame.f_id) st.pool) then
    st.pool <- st.pool @ [ frame ]

let take_free_slot frame =
  let rec go i =
    if i >= frame.f_nslots then None
    else
      match frame.f_slots.(i).sl_state with
      | Sfree -> Some frame.f_slots.(i)
      | Srunning _ | Sdone | Sfailed | Skilled -> go (i + 1)
  in
  go 0

(* True when some frame on the path from [exec] to the root is failing:
   the current computation is doomed and should abort. *)
let rec aborting exec =
  match exec.x_slot with
  | None -> false
  | Some slot -> slot.sl_frame.f_failing || aborting slot.sl_frame.f_parent

(* ------------------------------------------------------------------ *)
(* Resolution within one exec                                          *)
(* ------------------------------------------------------------------ *)

(* SPO: the procrastinated input marker materialises just before the first
   choice point of the slot. *)
let materialize_input_marker st exec =
  if exec.x_marker_pending then begin
    exec.x_marker_pending <- false;
    exec.x_input_marker <- true;
    charge_marker st ~input:true
  end

let push_cp st exec ~goal ~alts ~cont =
  chaos_yield st;
  materialize_input_marker st exec;
  exec.x_det <- false;
  charge_cp_alloc st;
  exec.x_stack <-
    Ecp { a_goal = goal; a_alts = alts; a_cont = cont; a_trail = Trail.mark exec.x_trail }
    :: exec.x_stack

(* Forward execution inside [exec].  Returns true on success of the whole
   continuation.  May recursively create and wait on parcall frames.
   Raises [Killed] if an ancestor frame starts failing. *)
let rec exec_run st (agent : agent_state) exec (cont : Clause.item list) : bool =
  check_cancel st;
  if aborting exec then raise Killed;
  match cont with
  | [] -> true
  | Clause.Par bodies :: rest -> exec_parcall st agent exec bodies rest
  | Clause.Call g :: rest -> dispatch st agent exec g rest
  | Clause.Exec _ :: _ ->
    assert false (* only compiled clause tries build these *)

(* A fired cancel token raises out of the kernel's call chokepoint to
   the agent's body, as from [check_cancel]. *)
and dispatch st agent exec g cont =
  match Kernel.step (ka st) exec.x_ctx g with
  | Kernel.R_control -> (
    match Kernel.classify g with
    | Kernel.Conj g | Kernel.Amp g ->
      exec_run st agent exec (Clause.compile_body g @ cont)
    | Kernel.Meta g -> dispatch st agent exec g cont
    | Kernel.Cut | Kernel.Disj _ | Kernel.Ite _ | Kernel.Naf _
    | Kernel.Sentinel _ | Kernel.Goal _ ->
      Kernel.unsupported (ka st) g)
  | resolved -> continue st agent exec resolved cont

(* Schedules what a step or one clause try came to.  Several candidates
   get a choice point before the first is tried. *)
and continue st agent exec resolved cont =
  match resolved with
  | Kernel.R_fail -> exec_backtrack st agent exec
  | Kernel.R_body body -> exec_run st agent exec (body @ cont)
  | Kernel.R_exec ->
    continue st agent exec (Kernel.step_callee (ka st) exec.x_ctx) cont
  | Kernel.R_alts -> (
    let a = ka st in
    let g = a.Kernel.goal in
    match a.Kernel.alts with
    | clause :: rest ->
      push_cp st exec ~goal:g ~alts:rest ~cont;
      continue st agent exec (Kernel.try_clause a exec.x_ctx g clause) cont
    | [] -> assert false (* [R_alts] leaves at least two candidates *))
  | Kernel.R_rows | Kernel.R_control | Kernel.R_answers _ | Kernel.R_consume _ ->
    assert false
    (* [dispatch] takes control; readers: generators only; rows:
       compiled agents only (this engine interprets) *)

(* Backtracking inside one exec.  Walks the private stack: choice points
   are retried; completed parcall frames get outside backtracking. *)
and exec_backtrack st agent exec : bool =
  check_cancel st;
  (shard st).Stats.backtracks <- (shard st).Stats.backtracks + 1;
  match exec.x_stack with
  | [] -> false
  | Ecp cp :: below -> (
    charge_bt_node st;
    match cp.a_alts with
    | [] ->
      if Prof.live (psh st) then Prof.fail (psh st) (Prof.key_of_term cp.a_goal);
      exec.x_stack <- below;
      exec_backtrack st agent exec
    | clause :: alts ->
      if Prof.live (psh st) then Prof.redo (psh st) (Prof.key_of_term cp.a_goal);
      Kernel.untrail (ka st) exec.x_trail cp.a_trail;
      charge st st.cost.Cost.cp_restore;
      if alts = [] then exec.x_stack <- below
      else begin
        cp.a_alts <- alts;
        (shard st).Stats.cp_updates <- (shard st).Stats.cp_updates + 1
      end;
      continue st agent exec
        (Kernel.try_clause (ka st) exec.x_ctx cp.a_goal clause)
        cp.a_cont)
  | Eframe (frame, mark) :: below ->
    charge st st.cost.Cost.frame_unwind;
    (shard st).Stats.bt_nodes_visited <- (shard st).Stats.bt_nodes_visited + 1;
    Kernel.untrail (ka st) exec.x_trail mark;
    if retry_frame st agent frame then exec_run st agent exec frame.f_cont
    else begin
      exec.x_stack <- below;
      exec_backtrack st agent exec
    end

(* ------------------------------------------------------------------ *)
(* Parcall frames                                                      *)
(* ------------------------------------------------------------------ *)

and make_slot frame index body =
  {
    sl_frame = frame;
    sl_index = index;
    sl_body = body;
    sl_state = Sfree;
    sl_exec = None;
    sl_no_input = false;
    sl_spliced = [];
  }

and exec_parcall st agent exec bodies rest =
  (* Granularity control (sequentialization schema, §4): a parallel
     conjunction whose estimated work is too small to amortize a frame runs
     as a plain conjunction in the current execution.  The estimate is the
     bounded term size of the branch goals — for list recursions this is
     proportional to the remaining input, so the top of a computation
     forks and the fine-grained bottom stays sequential. *)
  let sequentialize =
    st.config.Config.seq_threshold > 0
    &&
    (charge st st.cost.Cost.runtime_check;
     Kernel.Schema.sequentialize st.config bodies)
  in
  if sequentialize then begin
    (shard st).Stats.seq_hits <- (shard st).Stats.seq_hits + 1;
    exec_run st agent exec (List.concat bodies @ rest)
  end
  else begin
  (* LPCO: determinate slot whose body ends in a parcall — splice into the
     enclosing frame instead of nesting. *)
  let lpco_applicable =
    st.config.Config.lpco && rest = [] && exec.x_stack = []
    &&
    match exec.x_slot with
    | Some slot -> not slot.sl_frame.f_failing
    | None -> false
  in
  if st.config.Config.lpco then charge st st.cost.Cost.runtime_check;
  if lpco_applicable then begin
    let slot = Option.get exec.x_slot in
    let frame = slot.sl_frame in
    (shard st).Stats.lpco_hits <- (shard st).Stats.lpco_hits + 1;
    (shard st).Stats.frames_avoided <- (shard st).Stats.frames_avoided + 1;
    record_ev st Trace.Lpco_hit frame.f_id;
    slot.sl_spliced <- splice_slots st frame ~after_slot:slot bodies;
    register_frame st frame;
    (* this slot is done: its residual work now lives in the new slots *)
    true
  end
  else begin
    let frame = alloc_frame st agent exec bodies rest in
    register_frame st frame;
    if run_frame st agent frame then begin
      exec.x_stack <- Eframe (frame, Trail.mark exec.x_trail) :: exec.x_stack;
      if frame.f_nondet then exec.x_det <- false;
      exec_run st agent exec rest
    end
    else
      (* inside failure: the parcall as a whole fails; continue backtracking
         at older entries of this exec — this is the level-by-level failure
         propagation that LPCO's flattening short-circuits. *)
      exec_backtrack st agent exec
  end
  end

and alloc_frame st agent exec bodies rest =
  let n = List.length bodies in
  charge st (st.cost.Cost.frame_alloc + (n * st.cost.Cost.slot_init));
  (shard st).Stats.frames <- (shard st).Stats.frames + 1;
  (shard st).Stats.slots <- (shard st).Stats.slots + n;
  (if Prof.live (psh st) then begin
     Prof.slots (psh st) n;
     Prof.spawned (psh st) n
   end);
  (shard st).Stats.stack_words <-
    (shard st).Stats.stack_words + Cost.words_frame_base + (n * Cost.words_per_slot);
  let depth =
    match exec.x_slot with
    | None -> 1
    | Some slot -> slot.sl_frame.f_depth + 1
  in
  if depth > (shard st).Stats.max_frame_nesting then
    (shard st).Stats.max_frame_nesting <- depth;
  st.frame_counter <- st.frame_counter + 1;
  let frame =
    {
      f_id = st.frame_counter;
      f_nondet = false;
      f_depth = depth;
      f_parent = exec;
      f_owner = agent.ag_id;
      f_slots = [||];
      f_nslots = 0;
      f_pending = n;
      f_failing = false;
      f_cont = rest;
    }
  in
  let slots = List.mapi (fun i body -> make_slot frame i body) bodies in
  frame.f_slots <- Array.of_list slots;
  frame.f_nslots <- n;
  (match slots with
   | first :: _ -> first.sl_no_input <- true
   | [] -> ());
  record_ev st Trace.Task_spawn n;
  frame

(* LPCO splice: insert the nested parcall's subgoals as fresh slots right
   after [after], preserving sequential order for backward execution. *)
and splice_slots st frame ~after_slot bodies =
  let k = List.length bodies in
  charge st (k * st.cost.Cost.slot_init);
  (shard st).Stats.slots <- (shard st).Stats.slots + k;
  (if Prof.live (psh st) then begin
     Prof.slots (psh st) k;
     Prof.spawned (psh st) k
   end);
  (shard st).Stats.stack_words <-
    (shard st).Stats.stack_words + (k * Cost.words_per_slot);
  (* the delegator's index is read *after* the tick above: a concurrent
     splice by another agent may have shifted it, and inserting at a stale
     position would break the delegator-before-children invariant that
     outside backtracking relies on *)
  let after = after_slot.sl_index in
  let n = frame.f_nslots in
  let slots = Array.make (n + k) frame.f_slots.(0) in
  Array.blit frame.f_slots 0 slots 0 (after + 1);
  let fresh = List.mapi (fun i body -> make_slot frame (after + 1 + i) body) bodies in
  List.iteri (fun i slot -> slots.(after + 1 + i) <- slot) fresh;
  Array.blit frame.f_slots (after + 1) slots (after + 1 + k) (n - after - 1);
  for i = after + 1 + k to n + k - 1 do
    slots.(i).sl_index <- i
  done;
  frame.f_slots <- slots;
  frame.f_nslots <- n + k;
  frame.f_pending <- frame.f_pending + k;
  fresh

(* Removes [dead] slots (by physical identity) from the frame, re-indexing
   the survivors.  Does not touch [f_pending]; callers recount. *)
and remove_slots frame dead =
  if dead <> [] then begin
    let keep =
      Array.to_list frame.f_slots
      |> List.filter (fun s -> not (List.memq s dead))
    in
    frame.f_slots <- Array.of_list keep;
    frame.f_nslots <- Array.length frame.f_slots;
    Array.iteri (fun i s -> s.sl_index <- i) frame.f_slots
  end

(* Fully frees a slot for recomputation.  A delegated slot removes its
   spliced products from the frame (recursively): its re-execution will
   splice fresh ones, so leaving the old ones would duplicate work. *)
and reset_slot st frame slot =
  List.iter (fun child -> reset_slot st frame child) slot.sl_spliced;
  remove_slots frame slot.sl_spliced;
  slot.sl_spliced <- [];
  (match slot.sl_exec with
   | Some exec -> undo_exec st exec
   | None -> ());
  slot.sl_exec <- None;
  slot.sl_state <- Sfree

(* The owner's wait loop: execute free slots (preferring this frame), help
   other frames, or idle until the frame completes or fails. *)
and run_frame st agent frame : bool =
  let rec loop () =
    if aborting frame.f_parent then begin
      (* an ancestor failed: take this frame down, then unwind *)
      frame.f_failing <- true;
      drain_and_cleanup st frame;
      raise Killed
    end
    else if frame.f_failing then begin
      drain_and_cleanup st frame;
      false
    end
    else if frame.f_pending = 0 then begin
      unregister_frame st frame;
      true
    end
    else
      match take_free_slot frame with
      | Some slot ->
        claim_slot agent slot;
        run_slot st agent slot;
        loop ()
      | None -> (
        match steal st agent with
        | Some slot ->
          run_slot st agent slot;
          loop ()
        | None -> loop ())
  in
  loop ()

(* Waits until no slot is still running on another agent, then undoes all
   slot executions.  Used on the failure paths. *)
and drain_and_cleanup st frame =
  let someone_running () =
    let rec go i =
      if i >= frame.f_nslots then false
      else
        match frame.f_slots.(i).sl_state with
        | Srunning _ -> true
        | Sfree | Sdone | Sfailed | Skilled -> go (i + 1)
    in
    go 0
  in
  while someone_running () do
    charge st st.cost.Cost.steal_poll;
    (shard st).Stats.polls <- (shard st).Stats.polls + 1
  done;
  undo_frame st frame;
  unregister_frame st frame

(* Claims a slot for [agent].  The state change happens before any tick,
   so acquisition is atomic in the simulation: no other agent can claim the
   same slot. *)
and claim_slot agent slot = slot.sl_state <- Srunning agent.ag_id

(* Picks and claims a stealable slot from any registered frame.  Frames
   found with no free slot are dropped from the pool as we go: a slot can
   only become free again through outside backtracking, which re-registers
   the frame — keeping exhausted frames around would make every steal scan
   the entire history of the computation (and did, before this pruning). *)
and steal st agent =
  chaos_yield st;
  let visited = ref 0 in
  let rec scan = function
    | [] ->
      st.pool <- [];
      None
    | frame :: rest ->
      incr visited;
      (* injected steal failure: pass over this frame as if it had no
         free slot; its slots stay claimable for later scans *)
      if frame.f_failing || Chaos.steal_blocked st.chaos.(agent.ag_id) then
        scan rest
      else (
        match take_free_slot frame with
        | Some slot ->
          claim_slot agent slot;
          st.pool <- frame :: rest;
          Some slot
        | None -> scan rest)
  in
  let result = scan st.pool in
  (shard st).Stats.polls <- (shard st).Stats.polls + max 1 !visited;
  (match result with
   | Some slot ->
     charge st ((!visited * st.cost.Cost.steal_poll) + st.cost.Cost.steal_grab);
     (shard st).Stats.steals <- (shard st).Stats.steals + 1;
     (if Prof.live (psh st) then
        match slot.sl_body with
        | Clause.Call g :: _ -> Prof.stole (psh st) (Prof.key_of_term g)
        | _ -> ());
     record_ev st Trace.Steal slot.sl_frame.f_owner
   | None -> charge st (max 1 !visited * st.cost.Cost.steal_poll));
  result

(* Executes one slot to completion (or failure/kill).  All marker
   bookkeeping — including the SPO and PDO variants — lives here. *)
and run_slot st agent slot =
  let frame = slot.sl_frame in
  assert (match slot.sl_state with Srunning id -> id = agent.ag_id | _ -> false);
  let exec = make_exec st (Some slot) in
  slot.sl_exec <- Some exec;
  (* PDO contiguity check: did this agent just finish the sequentially
     preceding slot of the same frame? *)
  let contiguous =
    st.config.Config.pdo
    && (charge st st.cost.Cost.runtime_check;
        Kernel.Schema.pdo_contiguous st.config
          ~last:
            (match agent.ag_last_done with
             | Some prev -> Some (prev.sl_frame.f_id, prev.sl_index)
             | None -> None)
          ~next:(frame.f_id, slot.sl_index))
  in
  (* Settle the procrastinated end marker of the previous slot. *)
  (match agent.ag_pending_end with
   | Some prev_slot when not contiguous ->
     (match prev_slot.sl_exec with
      | Some prev_exec when not prev_exec.x_end_marker ->
        prev_exec.x_end_marker <- true;
        charge_marker st ~input:false
      | Some _ | None -> ())
   | Some _ | None -> ());
  agent.ag_pending_end <- None;
  if contiguous then begin
    (shard st).Stats.pdo_hits <- (shard st).Stats.pdo_hits + 1;
    (shard st).Stats.markers_avoided <- (shard st).Stats.markers_avoided + 2;
    record_ev st Trace.Pdo_hit frame.f_id
  end
  else if slot.sl_no_input && agent.ag_id = frame.f_owner then
    (* first subgoal run in place by the owner: the parcall frame itself
       marks its beginning (paper, Figure 2) *)
    ()
  else if st.config.Config.spo then begin
    charge st st.cost.Cost.runtime_check;
    exec.x_marker_pending <- true
  end
  else begin
    exec.x_input_marker <- true;
    charge_marker st ~input:true
  end;
  agent.ag_last_done <- None;
  charge st st.cost.Cost.task_switch;
  (shard st).Stats.task_switches <- (shard st).Stats.task_switches + 1;
  record_ev st Trace.Task_start frame.f_id;
  match exec_run st agent exec slot.sl_body with
  | true ->
    if not exec.x_det then frame.f_nondet <- true;
    (* completion markers *)
    let deterministic = exec.x_det in
    if contiguous then
      (* part of a contiguous section: no end marker here either; the next
         scheduling decision settles the section's final end marker *)
      agent.ag_pending_end <- Some slot
    else if st.config.Config.spo && exec.x_marker_pending && deterministic
    then begin
      (* SPO payoff: subgoal finished without ever creating a choice point;
         neither marker is needed — only the trail section survives. *)
      exec.x_marker_pending <- false;
      (shard st).Stats.spo_hits <- (shard st).Stats.spo_hits + 1;
      (shard st).Stats.markers_avoided <- (shard st).Stats.markers_avoided + 2;
      record_ev st Trace.Spo_hit frame.f_id
    end
    else if st.config.Config.pdo then
      (* defer the end marker: the next scheduling decision may merge *)
      agent.ag_pending_end <- Some slot
    else begin
      exec.x_end_marker <- true;
      charge_marker st ~input:false
    end;
    slot.sl_state <- Sdone;
    frame.f_pending <- frame.f_pending - 1;
    record_ev st Trace.Task_finish frame.f_id;
    agent.ag_last_done <- Some slot
  | false ->
    (* inside failure: the whole parcall fails *)
    (shard st).Stats.kills <- (shard st).Stats.kills + 1;
    charge st st.cost.Cost.kill_signal;
    undo_exec st exec;
    slot.sl_state <- Sfailed;
    frame.f_failing <- true;
    record_ev st Trace.Task_finish frame.f_id
  | exception Killed ->
    charge st st.cost.Cost.kill_signal;
    (shard st).Stats.kills <- (shard st).Stats.kills + 1;
    undo_exec st exec;
    slot.sl_state <- Skilled;
    record_ev st Trace.Task_finish frame.f_id

(* ------------------------------------------------------------------ *)
(* Outside backtracking: retrying a completed frame                    *)
(* ------------------------------------------------------------------ *)

(* Advances [slot]'s execution to its next solution; false when the slot is
   exhausted (in which case it is fully undone and reset). *)
and retry_slot st agent slot =
  match slot.sl_exec with
  | None -> false
  | Some exec ->
    charge st st.cost.Cost.task_switch;
    (shard st).Stats.task_switches <- (shard st).Stats.task_switches + 1;
    (* crossing the slot's end marker to get into it *)
    if exec.x_end_marker then charge_bt_node st;
    if exec_backtrack st agent exec then true
    else begin
      reset_slot st slot.sl_frame slot;
      false
    end

(* Outside backtracking into a completed frame: retry the rightmost slot
   owning alternatives, then recompute the slots to its right in parallel
   (sound under strict independence).  Returns false when the frame is
   exhausted (all slots then reset and the frame is dead). *)
and retry_frame st agent frame : bool =
  let rec scan j =
    if j < 0 then false
    else begin
      charge st st.cost.Cost.frame_linear_scan;
      assert (j < frame.f_nslots);
      let slot = frame.f_slots.(j) in
      if retry_slot st agent slot then begin
        (* recompute everything to the right, in parallel; spliced slots
           leave the frame with their delegators and will be re-spliced *)
        for k = frame.f_nslots - 1 downto j + 1 do
          if k < frame.f_nslots then reset_slot st frame frame.f_slots.(k)
        done;
        let to_recompute = ref 0 in
        for k = j + 1 to frame.f_nslots - 1 do
          if frame.f_slots.(k).sl_state = Sfree then incr to_recompute
        done;
        frame.f_pending <- !to_recompute;
        frame.f_failing <- false;
        if !to_recompute > 0 then begin
          register_frame st frame;
          if run_frame st agent frame then true
          else
            (* recomputation failed: only possible when the annotation was
               not strictly independent; treat as frame failure *)
            false
        end
        else true
      end
      else scan (j - 1)
    end
  in
  (shard st).Stats.backtracks <- (shard st).Stats.backtracks + 1;
  scan (frame.f_nslots - 1)

(* ------------------------------------------------------------------ *)
(* Agents and the top-level query                                      *)
(* ------------------------------------------------------------------ *)

let worker_body st agent () =
  let rec loop () =
    if st.finished then ()
    else begin
      check_cancel st;
      (match steal st agent with
       | Some slot -> run_slot st agent slot
       | None -> ());
      loop ()
    end
  in
  (* a fired token unwinds out of a stolen slot (or the steal loop itself);
     stop the simulation and park — idempotent when [check_cancel] already
     stopped it, and needed when the kernel's tabling chokepoint raised *)
  try loop ()
  with Cancel.Cancelled ->
    st.finished <- true;
    Sim.stop st.sim

let root_body st () =
  let agent = st.agents.(0) in
  let exec = make_exec st None in
  let record () =
    (shard st).Stats.solutions <- (shard st).Stats.solutions + 1;
    st.sol_count <- st.sol_count + 1;
    record_ev st Trace.Solution st.sol_count;
    st.solutions <- Term.copy_resolved st.goal :: st.solutions
  in
  let want_more () =
    match st.config.Config.max_solutions with
    | None -> true
    | Some limit -> st.sol_count < limit
  in
  let rec drive ok =
    if ok then begin
      record ();
      if want_more () then drive (exec_backtrack st agent exec) else ()
    end
    else ()
  in
  (try drive (exec_run st agent exec (Clause.compile_body st.goal))
   with
   | Killed -> assert false (* the root exec has no ancestor frames *)
   | Cancel.Cancelled -> () (* solutions recorded so far stand *));
  st.finished <- true;
  Sim.stop st.sim

let solve (opts : Run.opts) table (config : Config.t) db goal =
  let t0 = Unix.gettimeofday () in
  let sim = Sim.create ~max_steps:3_000_000 () in
  let n = config.Config.agents in
  let ks =
    Array.init n (fun i ->
        Kernel.agent opts ~name:"the and-parallel engine"
          ~clock:(Kernel.Ticks sim) ~cost:config.Config.cost
          ~stats:(Stats.create ()) ~db ~table ~compiled:false ~dom:i)
  in
  let st =
    {
      config;
      cost = config.Config.cost;
      ks;
      chaos = Array.init n (fun i -> Chaos.agent opts.Run.chaos i);
      sim;
      output = opts.Run.output;
      agents =
        Array.init n (fun i ->
            { ag_id = i; ag_last_done = None; ag_pending_end = None });
      pool = [];
      frame_counter = 0;
      cancel = opts.Run.cancel;
      finished = false;
      sol_count = 0;
      solutions = [];
      goal;
    }
  in
  Sim.spawn sim ~agent:0 (root_body st);
  for i = 1 to n - 1 do
    Sim.spawn sim ~agent:i (worker_body st st.agents.(i))
  done;
  Sim.run sim;
  let metrics =
    Ace_obs.Metrics.of_stats_array
      (Array.map (fun (a : Kernel.agent) -> a.Kernel.stats) ks)
  in
  Kernel.finish opts ~t0 ~cycles:(Some (Sim.stop_time sim))
    (List.rev st.solutions) (Ace_obs.Metrics.total metrics) metrics
