(* The or-parallel engine (MUSE-style, as in the ACE or-parallel
   component).

   Every worker owns a complete private machine state (choice-point stack,
   trail, bindings).  An idle worker picks a victim, scans the victim's
   choice-point stack bottom-up for a node with untried alternatives
   (charged per node visited — dead, exhausted nodes on the way cost real
   scan time), then *copies* the victim's machine state, backtracks the
   copy to the stolen node, and takes the next alternative.  The
   alternative lists of copied choice points are shared (behind a ref), so
   every alternative is explored exactly once globally — the MUSE
   public-region discipline.

   Because a shared (copied) node may back branches of other workers, an
   exhausted node cannot be trust-popped at its last alternative the way a
   sequential engine would: it stays on the stack until backtracking pops
   it, and scans and copies keep paying for it.  This is precisely the
   behaviour the Last Alternative Optimization (LAO, paper §3.2) attacks:
   with LAO, creating a choice point while the current top node is
   exhausted *updates that node in place* instead of allocating a new one,
   so member/2-style generators keep a single live node holding all
   remaining alternatives (paper's Figures 6 and 7).  The in-place update
   of a potentially shared node needs synchronization, so it is charged
   *more* than a private allocation — which is why LAO loses a little at 1
   worker (the negative first column of the paper's Table 3) and wins once
   scans and copies matter.

   Solutions: the root continuation ends in a sentinel goal ['$solution']
   that records the current bindings and then fails, driving exploration of
   the entire search tree (or until [max_solutions]). *)

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

type ocp = {
  mutable o_goal : Term.t;
  mutable o_alts : Clause.t list ref; (* shared with copies of this node *)
  mutable o_cont : Clause.item list;
  mutable o_trail : int;
}

type worker = {
  w_id : int;
  mutable w_cps : ocp list; (* newest first *)
  mutable w_ctx : Builtins.ctx; (* its builtin context and trail *)
  mutable w_idle : bool;
}

type t = {
  config : Config.t;
  cost : Cost.t;
  ks : Kernel.agent array;
    (* the kernel's view of each simulated worker: the database and
       answer table, its stats shard, trace ring and profiler shard,
       charges ticking the simulator *)
  chaos : Chaos.agent array; (* per-worker schedule-jitter streams *)
  sim : Sim.t;
  workers : worker array;
  cancel : Cancel.t;
    (* polled at the call/backtrack chokepoints; once fired the run stops
       through the same finished+stop path as a solution limit (the call
       chokepoint's raise is caught in [worker_body]) *)
  mutable finished : bool;
  mutable idle_count : int;
  mutable sol_count : int;
  mutable solutions : Term.t list; (* newest first *)
}

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
let record st kind arg = Kernel.record (ka st) kind arg

(* Schedule-exploration yield site: chaos may charge a few extra virtual
   cycles here.  The simulator always resumes the agent with the smallest
   clock, so each jitter seed deterministically selects one alternative
   interleaving of the same search. *)
let chaos_yield st =
  let j = Chaos.jitter st.chaos.(cur st) in
  if j > 0 then Sim.tick j

(* Cancellation observed: stop the whole search exactly like a solution
   limit — [Sim.stop] discards the other agents' pending continuations,
   abandoning their (private) stacks and trails mid-flight, as when a
   real query completes. *)
let stop st =
  st.finished <- true;
  Sim.stop st.sim

(* ------------------------------------------------------------------ *)
(* Raw state copying (the MUSE stack copy)                             *)
(* ------------------------------------------------------------------ *)

(* Bound variables copied as bound variables, so the receiving trail can
   undo them independently.  [cells] counts copied cells for the copy
   charge. *)
let rec raw_term table cells t =
  incr cells;
  match t with
  | Term.Atom _ | Term.Int _ -> t
  | Term.Struct (f, args) ->
    Term.Struct (f, Array.map (raw_term table cells) args)
  | Term.Var v -> (
    match Hashtbl.find_opt table v.Term.vid with
    | Some v' -> Term.Var v'
    | None ->
      let v' = Term.fresh_var () in
      Hashtbl.add table v.Term.vid v';
      (match v.Term.binding with
       | Some b -> v'.Term.binding <- Some (raw_term table cells b)
       | None -> ());
      Term.Var v')

let rec raw_items table cells items =
  List.map
    (function
      | Clause.Call g -> Clause.Call (raw_term table cells g)
      | Clause.Exec _ ->
        assert false (* the or-parallel simulator runs interpreted clauses *)
      | Clause.Par bodies ->
        Clause.Par (List.map (raw_items table cells) bodies))
    items

let raw_var table cells v =
  match raw_term table cells (Term.Var v) with
  | Term.Var v' -> v'
  | Term.Atom _ | Term.Int _ | Term.Struct _ -> assert false

(* Copies the victim's entire machine state into the thief (full stack +
   full trail, exactly like a MUSE stack copy); the caller then backtracks
   the copy to the stolen node.  The alternative refs stay shared. *)
let copy_state st ~victim ~thief =
  let table = Hashtbl.create 256 in
  let cells = ref 0 in
  let cps =
    List.map
      (fun cp ->
        {
          o_goal = raw_term table cells cp.o_goal;
          o_alts = cp.o_alts; (* shared *)
          o_cont = raw_items table cells cp.o_cont;
          o_trail = cp.o_trail;
        })
      victim.w_cps
  in
  let trail = Trail.create () in
  let vtrail = victim.w_ctx.Builtins.trail in
  let entries = Trail.segment vtrail ~lo:0 ~hi:(Trail.size vtrail) in
  Array.iter (fun v -> Trail.push trail (raw_var table cells v)) entries;
  thief.w_cps <- cps;
  thief.w_ctx <- { thief.w_ctx with Builtins.trail };
  charge st (st.cost.Cost.copy_setup + (!cells * st.cost.Cost.copy_cell));
  (shard st).Stats.copies <- (shard st).Stats.copies + 1;
  (shard st).Stats.copied_cells <- (shard st).Stats.copied_cells + !cells;
  if Prof.live (psh st) then Prof.copied (psh st) !cells;
  record st Trace.Copy !cells

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)
(* ------------------------------------------------------------------ *)

(* Choice-point creation, with the LAO check: if the current top node is
   exhausted, refurbish it in place instead of allocating a new node. *)
let push_cp st w ~goal ~alts ~cont =
  let mark = Trail.mark w.w_ctx.Builtins.trail in
  chaos_yield st;
  if st.config.Config.lao then charge st st.cost.Cost.runtime_check;
  match w.w_cps with
  | top :: _
    when Kernel.Schema.lao_refurbish st.config ~top_exhausted:(!(top.o_alts) = []) ->
    charge st st.cost.Cost.lao_update;
    (shard st).Stats.cp_updates <- (shard st).Stats.cp_updates + 1;
    (shard st).Stats.lao_hits <- (shard st).Stats.lao_hits + 1;
    record st Trace.Lao_hit (List.length alts);
    top.o_goal <- goal;
    top.o_alts <- ref alts; (* fresh ref: old copies keep their dead ref *)
    top.o_cont <- cont;
    top.o_trail <- mark
  | _ ->
    charge st st.cost.Cost.cp_alloc;
    (shard st).Stats.cp_allocs <- (shard st).Stats.cp_allocs + 1;
    (shard st).Stats.stack_words <-
      (shard st).Stats.stack_words + Cost.words_choice_point;
    w.w_cps <-
      { o_goal = goal; o_alts = ref alts; o_cont = cont; o_trail = mark }
      :: w.w_cps

let record_solution st =
  (shard st).Stats.solutions <- (shard st).Stats.solutions + 1;
  st.sol_count <- st.sol_count + 1;
  record st Trace.Solution st.sol_count

(* Forward execution until a failure (solutions report-and-fail via the
   sentinel) or engine shutdown.  Returns when the worker has no local
   alternatives left. *)
let rec run_worker st w (cont : Clause.item list) : unit =
  if st.finished then ()
  else
    match cont with
    | [] ->
      (* only reachable for a goal without the sentinel; treat as done *)
      backtrack st w
    | Clause.Par bodies :: rest ->
      (* the or-engine runs '&' sequentially *)
      run_worker st w (List.concat bodies @ rest)
    | Clause.Call g :: rest -> dispatch st w g rest
    | Clause.Exec _ :: _ ->
      assert false (* only compiled clause tries build these *)

and dispatch st w g cont =
  match Kernel.step (ka st) w.w_ctx g with
  | Kernel.R_control -> control st w g cont
  | resolved -> continue st w resolved cont

and control st w g cont =
  match Kernel.classify g with
  | Kernel.Sentinel goal ->
    record_solution st;
    st.solutions <- Term.copy_resolved goal :: st.solutions;
    let enough =
      match st.config.Config.max_solutions with
      | Some limit -> st.sol_count >= limit
      | None -> false
    in
    if enough then stop st
    else backtrack st w (* report-and-fail drives the full search *)
  | Kernel.Conj g | Kernel.Amp g -> run_worker st w (Clause.compile_body g @ cont)
  | Kernel.Meta g -> dispatch st w g cont
  | Kernel.Cut | Kernel.Disj _ | Kernel.Ite _ | Kernel.Naf _ | Kernel.Goal _ ->
    Kernel.unsupported (ka st) g

(* Schedules what a step or one clause try came to.  Several candidates
   get a choice point (LAO-refurbished or new) before the first is
   tried. *)
and continue st w resolved cont =
  match resolved with
  | Kernel.R_fail -> backtrack st w
  | Kernel.R_body body -> run_worker st w (body @ cont)
  | Kernel.R_exec -> continue st w (Kernel.step_callee (ka st) w.w_ctx) cont
  | Kernel.R_alts -> (
    let a = ka st in
    let g = a.Kernel.goal in
    match a.Kernel.alts with
    | clause :: rest ->
      push_cp st w ~goal:g ~alts:rest ~cont;
      continue st w (Kernel.try_clause a w.w_ctx g clause) cont
    | [] -> assert false (* [R_alts] leaves at least two candidates *))
  | Kernel.R_control | Kernel.R_answers _ | Kernel.R_consume _ ->
    assert false (* [dispatch] takes control; readers: generators only *)

(* Local backtracking: exhausted nodes are popped (each visit charged); a
   node with remaining shared alternatives yields the next one. *)
and backtrack st w =
  (shard st).Stats.backtracks <- (shard st).Stats.backtracks + 1;
  if st.finished then ()
  else if Cancel.poll st.cancel then stop st
  else begin
    chaos_yield st;
    match w.w_cps with
    | [] -> () (* no local work left: the worker loop will go stealing *)
    | cp :: below -> (
      charge st st.cost.Cost.backtrack_node;
      (shard st).Stats.bt_nodes_visited <- (shard st).Stats.bt_nodes_visited + 1;
      match !(cp.o_alts) with
      | [] ->
        if Prof.live (psh st) then Prof.fail (psh st) (Prof.key_of_term cp.o_goal);
        w.w_cps <- below;
        backtrack st w
      | clause :: alts ->
        if Prof.live (psh st) then Prof.redo (psh st) (Prof.key_of_term cp.o_goal);
        cp.o_alts := alts;
        Kernel.untrail (ka st) w.w_ctx.Builtins.trail cp.o_trail;
        charge st st.cost.Cost.cp_restore;
        continue st w
          (Kernel.try_clause (ka st) w.w_ctx cp.o_goal clause)
          cp.o_cont)
  end

(* ------------------------------------------------------------------ *)
(* Or-scheduler: scanning and stealing                                 *)
(* ------------------------------------------------------------------ *)

(* Scans [victim]'s stack bottom-up for the first node with untried
   alternatives; charges per node visited (dead nodes on the way cost real
   scan time).  The scan itself does not tick, so the result is consistent
   with the claim that follows; the accumulated cost is charged in one
   step. *)
let find_work st victim =
  let visited = ref 0 in
  let rec scan = function
    | [] -> None
    | cp :: above ->
      incr visited;
      if !(cp.o_alts) <> [] then Some cp else scan above
  in
  let result = scan (List.rev victim.w_cps) in
  (shard st).Stats.or_scans <- (shard st).Stats.or_scans + !visited;
  (result, !visited * st.cost.Cost.or_scan_node)

(* Steals from the first victim (in id order after the thief) that has
   work: copy the whole state, backtrack the copy to the stolen node, pop
   one alternative.  Returns the goal/continuation to resume with. *)
let try_steal st (w : worker) =
  let p = Array.length st.workers in
  let rec attempt k =
    if k >= p then None
    else
      let victim = st.workers.((w.w_id + 1 + k) mod p) in
      (* injected steal failure: skip this victim as if it had no work *)
      if
        victim.w_id = w.w_id || victim.w_cps = []
        || Chaos.steal_blocked st.chaos.(w.w_id)
      then attempt (k + 1)
      else begin
        (* scan, claim and copy happen without an intervening tick: a live
           node (non-empty alternatives) is guaranteed to still be on the
           victim's stack, so the copied stack contains the target *)
        let target, scan_cost = find_work st victim in
        match target with
        | None ->
          charge st scan_cost;
          attempt (k + 1)
        | Some target -> (
          match !(target.o_alts) with
          | [] ->
            charge st scan_cost;
            attempt (k + 1)
          | clause :: alts ->
            (* claim, remember the claimed ref, and copy — all before the
               first tick, so the victim cannot mutate underneath.  Leaving
               the idle set must be atomic with the claim, or another
               worker could observe "everyone idle" while this one holds
               claimed work and declare premature exhaustion. *)
            let claimed_ref = target.o_alts in
            claimed_ref := alts;
            (if Prof.live (psh st) then begin
               let k = Prof.key_of_term target.o_goal in
               Prof.stole (psh st) k;
               Prof.redo (psh st) k
             end);
            if w.w_idle then begin
              w.w_idle <- false;
              st.idle_count <- st.idle_count - 1
            end;
            copy_state st ~victim ~thief:w;
            charge st scan_cost;
            (* backtrack the copy to the stolen node *)
            let rec pop_to popped = function
              | [] -> assert false
              | cp :: below ->
                if cp.o_alts == claimed_ref then (cp, popped + 1)
                else pop_to (popped + 1) below
            in
            let cp, visited = pop_to 0 w.w_cps in
            let rec drop = function
              | cp' :: below when not (cp'.o_alts == claimed_ref) -> drop below
              | rest -> rest
            in
            w.w_cps <- drop w.w_cps;
            charge st (visited * st.cost.Cost.backtrack_node);
            (shard st).Stats.bt_nodes_visited <-
              (shard st).Stats.bt_nodes_visited + visited;
            Kernel.untrail (ka st) w.w_ctx.Builtins.trail cp.o_trail;
            charge st (st.cost.Cost.cp_restore + st.cost.Cost.steal_grab);
            (shard st).Stats.steals <- (shard st).Stats.steals + 1;
            record st Trace.Steal victim.w_id;
            Some (cp, clause))
      end
  in
  attempt 0

let worker_body st w ~initial () =
  let resume (cp, clause) =
    continue st w (Kernel.try_clause (ka st) w.w_ctx cp.o_goal clause)
      cp.o_cont
  in
  (* steal loop with distributed termination detection: a worker that finds
     nothing to steal while every other worker is idle declares global
     exhaustion *)
  let rec idle_loop () =
    if st.finished then ()
    else begin
      w.w_idle <- true;
      st.idle_count <- st.idle_count + 1;
      record st Trace.Idle_begin 0;
      let rec poll () =
        if st.finished then record st Trace.Idle_end 0
        else if Cancel.poll st.cancel then begin
          stop st;
          record st Trace.Idle_end 0
        end
        else
          match try_steal st w with
          | Some work ->
            (* the idle set was left at claim time, inside try_steal *)
            record st Trace.Idle_end 0;
            resume work;
            idle_loop ()
          | None ->
            if st.idle_count = Array.length st.workers then begin
              st.finished <- true;
              Sim.stop st.sim;
              record st Trace.Idle_end 0
            end
            else begin
              charge st st.cost.Cost.steal_poll;
              (shard st).Stats.polls <- (shard st).Stats.polls + 1;
              chaos_yield st;
              poll ()
            end
      in
      poll ()
    end
  in
  (* a fired cancel token raises out of the kernel's call chokepoint:
     stop the search like a solution limit *)
  try
    (match initial with
     | Some cont -> run_worker st w cont
     | None -> ());
    idle_loop ()
  with Cancel.Cancelled -> stop st

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let solve (opts : Run.opts) table (config : Config.t) db goal =
  let t0 = Unix.gettimeofday () in
  let sim = Sim.create ~max_steps:3_000_000 () in
  let n = config.Config.agents in
  let st =
    {
      config;
      cost = config.Config.cost;
      ks =
        Array.init n (fun i ->
            Kernel.agent opts ~name:"the or-parallel engine"
              ~clock:(Kernel.Ticks sim) ~cost:config.Config.cost
              ~stats:(Stats.create ()) ~db ~table ~compiled:false ~dom:i);
      chaos = Array.init n (fun i -> Chaos.agent opts.Run.chaos i);
      sim;
      workers =
        Array.init n (fun i ->
            let trail = Trail.create () in
            { w_id = i; w_cps = [];
              w_ctx = Builtins.make_ctx ?output:opts.Run.output ~trail ();
              w_idle = false });
      cancel = opts.Run.cancel;
      finished = false;
      idle_count = 0;
      sol_count = 0;
      solutions = [];
    }
  in
  let init = Kernel.sentinel_body goal in
  Array.iter
    (fun w ->
      let initial = if w.w_id = 0 then Some init else None in
      Sim.spawn sim ~agent:w.w_id (worker_body st w ~initial))
    st.workers;
  Sim.run sim;
  let metrics =
    Ace_obs.Metrics.of_stats_array
      (Array.map (fun (a : Kernel.agent) -> a.Kernel.stats) st.ks)
  in
  Kernel.finish opts ~t0 ~cycles:(Some (Sim.stop_time sim))
    (List.rev st.solutions) (Ace_obs.Metrics.total metrics) metrics
