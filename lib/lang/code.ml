(* The clause compiler: lowers a clause template to flat instruction code.

   Head arguments become get_*/unify_* instructions executed directly
   against the caller's goal arguments — no renamed head copy is
   allocated and the goal is walked exactly once.  Clause variables live
   in a per-try frame (a [Term.t array]); a head first occurrence stores
   the goal subterm into its slot without allocating a variable at all,
   so a fully instantiated call binds nothing and trails nothing.

   Bodies become register-machine code: each body goal is one {!step} —
   [put_*] loads of the goal's arguments into the argument registers
   followed by an operation.  Builtin goals ([O_builtin]) dispatch from
   the registers without ever building a goal term; plain user calls
   ([O_call]) jump into the callee's clause selection with the registers
   as the goal arguments; the final user call compiles to [O_execute]
   (last-call optimization — the caller's frame is dead, so the callee
   may reuse the machinery without stacking a continuation).  Control
   constructs (cut, ';', '->', naf, call/1, the solver's solution/1
   sentinel) and parallel conjunctions keep term-building form
   ([O_goal]/[O_par]) and drop back into each engine's interpreted
   control machinery, so cut barriers, parcall frames and or-parallel
   publication are untouched by compilation.

   Frame slots are ordered by *descending last occurrence* (a step index;
   head-only variables sort last), so the live slots after any step form
   a prefix: [O_call] carries the size of that prefix and engines that
   can prove the frame private may trim the dead suffix (environment
   trimming).  Variables occurring exactly once are voids — they get no
   slot at all ([U_void] in heads, [P_void] in bodies).

   Trail discipline is the interpreter's: every binding of a caller-side
   variable goes through {!Unify.bind} on the worker's trail (structure
   cells freshly allocated in write mode are not caller state and are not
   trailed), so choice-point marks, MUSE stack copies and parcall
   unwinding work identically on compiled code. *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol
module Trail = Ace_term.Trail
module Unify = Ace_term.Unify

(* Head instructions.  [Get_*] match one goal argument (the [int] is the
   argument index); [U_*] match the cells of the structure entered by the
   nearest enclosing [Get_struct]/[U_struct], left to right, with [U_pop]
   closing the structure.  In read mode a [*_struct] against an unbound
   variable binds it to a fresh skeleton and switches the cells below to
   write mode (WAM read/write modes, structure-threaded). *)
type instr =
  | Get_atom of Symbol.t * int
  | Get_int of int * int
  | Get_var of int * int (* frame slot <- goal argument; first occurrence *)
  | Get_val of int * int (* full unify frame slot vs goal argument *)
  | Get_struct of Symbol.t * int * int (* functor, arity, argument *)
  | Get_ground of Term.t * int (* ground argument: unify against template *)
  | U_atom of Symbol.t
  | U_int of int
  | U_var of int
  | U_val of int
  | U_void (* single-occurrence variable: matches anything, stores nothing *)
  | U_struct of Symbol.t * int (* functor, arity *)
  | U_ground of Term.t
  | U_pop

(* Body put code: builds argument-register (or goal-term) contents from
   the frame.  [P_const] shares the (ground, hence immutable) template
   subterm; [P_fresh] is a variable's first occurrence — the fresh
   variable is stored into its slot for later [P_val] reads; [P_void] is
   a single-occurrence variable (fresh, unstored). *)
type put =
  | P_const of Term.t
  | P_fresh of int
  | P_val of int
  | P_void
  | P_struct of Symbol.t * put array

(* Parallel-conjunction branches keep the term-building item form: their
   bodies are instantiated wholesale into a {!Clause.body} when the
   parcall is reached. *)
type bitem =
  | B_call of put
  | B_par of bitem list list

(* One body goal.  [s_puts] loads the argument registers (empty for
   [O_goal]/[O_par], whose payload carries its own puts); [s_op] then
   consumes them. *)
type op =
  | O_builtin of Symbol.t (* dispatch from the registers *)
  | O_call of Symbol.t * int (* user call; [int] = live slots after it *)
  | O_execute of Symbol.t (* last user call: frame is dead, no return *)
  | O_goal of put (* control construct: build the term, let the engine
                     classify and dispatch it *)
  | O_par of bitem list list (* parallel conjunction *)

type step = { s_puts : put array; s_op : op }

type t = {
  c_head : instr array;
  c_body : step array;
  c_nvars : int; (* frame slots after void elimination *)
  c_scratch : bool;
      (* body is all builtins plus at most a final execute: the whole
         clause try can run on the reusable scratch frame (no heap
         environment, no continuation) *)
}

(* The engines' builtin table lives above this library; it registers its
   membership test here at startup so the compiler can classify body
   goals.  Defaults to "nothing is a builtin", which is only correct
   before {!Ace_core.Builtins} initializes — i.e. never at runtime. *)
let builtin_hook : (Symbol.t -> int -> bool) ref = ref (fun _ _ -> false)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Seeded mutation hook for the CI compile-smoke test: when set to
   [Some k], one structure-preserving rewrite is applied to every
   subsequently compiled clause (at point [k mod points], scanning
   forward to the first rewritable point; body steps come before head
   instructions so small seeds exercise the new body code), and the
   differential oracle must report compiled-vs-interpreted
   discrepancies.  Never set outside tests. *)
let mutation : int option ref = ref None

let mutant_atom = lazy (Symbol.intern "$mutant")

(* Rewrites one head instruction without changing the code's structure
   (cell counts and struct nesting preserved), twisting its matching
   semantics. *)
let mutate_instr = function
  | Get_atom (_, i) -> Some (Get_atom (Lazy.force mutant_atom, i))
  | Get_int (n, i) -> Some (Get_int (n + 1, i))
  | Get_var (_, i) -> Some (Get_atom (Lazy.force mutant_atom, i))
  | Get_val (s, i) -> Some (Get_var (s, i)) (* drops the consistency check *)
  | Get_struct (_, n, i) -> Some (Get_struct (Lazy.force mutant_atom, n, i))
  | Get_ground (_, i) -> Some (Get_atom (Lazy.force mutant_atom, i))
  | U_atom _ -> Some (U_atom (Lazy.force mutant_atom))
  | U_int n -> Some (U_int (n + 1))
  | U_var _ -> Some (U_atom (Lazy.force mutant_atom))
  | U_val s -> Some (U_var s)
  | U_struct (_, n) -> Some (U_struct (Lazy.force mutant_atom, n))
  | U_ground _ -> Some (U_atom (Lazy.force mutant_atom))
  | U_void | U_pop -> None (* structural; never rewritten *)

let rec mutate_put = function
  | P_const (Term.Int n) -> Some (P_const (Term.Int (n + 1)))
  | P_const _ -> Some (P_const (Term.Atom (Lazy.force mutant_atom)))
  | P_val _ -> Some P_void (* reads a fresh variable instead of the slot *)
  | P_fresh _ | P_void -> None
  | P_struct (f, ps) ->
    (* rewrite the first rewritable argument, else the functor *)
    let n = Array.length ps in
    let rec go i =
      if i >= n then Some (P_struct (Lazy.force mutant_atom, ps))
      else
        match mutate_put ps.(i) with
        | Some p ->
          let ps = Array.copy ps in
          ps.(i) <- p;
          Some (P_struct (f, ps))
        | None -> go (i + 1)
    in
    go 0

(* Retargets a step's operation (call/execute/builtin aimed at the
   [$mutant] predicate — an existence error or a failed dispatch on the
   compiled path only), falling back to put rewrites for [O_goal]. *)
let mutate_step step =
  match step.s_op with
  | O_builtin _ -> Some { step with s_op = O_builtin (Lazy.force mutant_atom) }
  | O_call (_, trim) ->
    Some { step with s_op = O_call (Lazy.force mutant_atom, trim) }
  | O_execute _ -> Some { step with s_op = O_execute (Lazy.force mutant_atom) }
  | O_goal p ->
    (match mutate_put p with
     | Some p -> Some { step with s_op = O_goal p }
     | None -> None)
  | O_par _ -> None

(* Mutation points are the body steps (first) then the head
   instructions, so the small seeds used by CI land on body code
   whenever the clause has a body. *)
let apply_mutation head body =
  match !mutation with
  | None -> (head, body)
  | Some k ->
    let nb = Array.length body and nh = Array.length head in
    let total = nb + nh in
    if total = 0 then (head, body)
    else begin
      let head = Array.copy head and body = Array.copy body in
      let rec go tries i =
        if tries >= total then ()
        else if i < nb then (
          match mutate_step body.(i) with
          | Some s -> body.(i) <- s
          | None -> go (tries + 1) ((i + 1) mod total))
        else
          match mutate_instr head.(i - nb) with
          | Some ins -> head.(i - nb) <- ins
          | None -> go (tries + 1) ((i + 1) mod total)
      in
      go 0 (k mod total);
      (head, body)
    end

let is_ground_template t =
  (* template variables are never bound, so plain groundness is right *)
  Term.is_ground t

(* Goals the engines treat as control rather than plain calls — the
   test [Kernel.step] makes too, so compiled dispatch and the
   interpreter agree on what is a predicate; must mirror
   [Kernel.classify]. *)
let is_control g =
  match g with
  | Term.Atom s -> Symbol.equal s Symbol.cut
  | Term.Struct (s, [| _ |]) ->
    Symbol.equal s Symbol.naf || Symbol.equal s Symbol.call
    || Symbol.equal s Symbol.solution
  | Term.Struct (s, [| _; _ |]) ->
    Symbol.equal s Symbol.comma || Symbol.equal s Symbol.amp
    || Symbol.equal s Symbol.semicolon || Symbol.equal s Symbol.arrow
  | _ -> false

(* Occurrence analysis over the whole template: per canonical slot, the
   total occurrence count and the last step index that mentions it (-1 =
   head only).  Single-occurrence variables are voids; the rest are
   renumbered by descending last occurrence so trimming keeps a
   prefix. *)
let analyze clause =
  let n = max 1 clause.Clause.nvars in
  let occ = Array.make n 0 in
  let last = Array.make n (-1) in
  let rec scan step t =
    match Term.deref t with
    | Term.Atom _ | Term.Int _ -> ()
    | Term.Var v ->
      let s = Clause.var_slot clause v in
      occ.(s) <- occ.(s) + 1;
      if step > last.(s) then last.(s) <- step
    | Term.Struct (_, args) -> Array.iter (scan step) args
  in
  (match Term.deref clause.Clause.head with
   | Term.Struct (_, args) -> Array.iter (scan (-1)) args
   | _ -> ());
  let rec scan_item step = function
    | Clause.Call g -> scan step g
    | Clause.Par bodies -> List.iter (List.iter (scan_item step)) bodies
    | Clause.Exec _ -> ()
  in
  List.iteri scan_item clause.Clause.body;
  let order =
    List.filter (fun s -> occ.(s) > 1) (List.init clause.Clause.nvars Fun.id)
  in
  (* stable: equal last occurrences keep canonical (first-appearance)
     order, so listings stay readable *)
  let order = List.stable_sort (fun a b -> compare last.(b) last.(a)) order in
  let slot_map = Array.make n (-1) in
  List.iteri (fun ns cs -> slot_map.(cs) <- ns) order;
  let trim_at k = List.length (List.filter (fun cs -> last.(cs) > k) order) in
  (occ, slot_map, List.length order, trim_at)

let compile clause =
  let occ, slot_map, nslots, trim_at = analyze clause in
  let seen = Array.make (max 1 nslots) false in
  let slot v =
    let cs = Clause.var_slot clause v in
    if occ.(cs) = 1 then None
    else begin
      let s = slot_map.(cs) in
      let first = not seen.(s) in
      seen.(s) <- true;
      Some (s, first)
    end
  in
  (* head *)
  let acc = ref [] in
  let emit i = acc := i :: !acc in
  let rec emit_cell t =
    match Term.deref t with
    | Term.Atom s -> emit (U_atom s)
    | Term.Int n -> emit (U_int n)
    | Term.Var v ->
      (match slot v with
       | None -> emit U_void
       | Some (s, first) -> emit (if first then U_var s else U_val s))
    | Term.Struct (f, args) ->
      if is_ground_template t then emit (U_ground (Term.deref t))
      else begin
        emit (U_struct (f, Array.length args));
        Array.iter emit_cell args;
        emit U_pop
      end
  in
  let emit_arg i t =
    match Term.deref t with
    | Term.Atom s -> emit (Get_atom (s, i))
    | Term.Int n -> emit (Get_int (n, i))
    | Term.Var v ->
      (match slot v with
       | None -> () (* a top-level void argument matches anything *)
       | Some (s, first) -> emit (if first then Get_var (s, i) else Get_val (s, i)))
    | Term.Struct (f, args) ->
      if is_ground_template t then emit (Get_ground (Term.deref t, i))
      else begin
        emit (Get_struct (f, Array.length args, i));
        Array.iter emit_cell args;
        emit U_pop
      end
  in
  (match Term.deref clause.Clause.head with
   | Term.Atom _ -> ()
   | Term.Struct (_, args) -> Array.iteri emit_arg args
   | Term.Int _ | Term.Var _ -> assert false (* checked at clause construction *));
  let head = Array.of_list (List.rev !acc) in
  (* body.  Put trees are built in execution order, so the compile-time
     first-occurrence marking ([P_fresh] vs [P_val]) matches the runtime
     order in which [build_put] fills slots. *)
  let rec put_of t =
    match Term.deref t with
    | (Term.Atom _ | Term.Int _) as t' -> P_const t'
    | Term.Var v ->
      (match slot v with
       | None -> P_void
       | Some (s, first) -> if first then P_fresh s else P_val s)
    | Term.Struct (f, args) as t' ->
      if is_ground_template t' then P_const t'
      else P_struct (f, Array.map put_of args)
  in
  let rec go_bbody b = List.map go_bitem b
  and go_bitem = function
    | Clause.Call g -> B_call (put_of g)
    | Clause.Par bodies -> B_par (List.map go_bbody bodies)
    | Clause.Exec _ -> assert false (* runtime-only, never in templates *)
  in
  let nsteps = List.length clause.Clause.body in
  let step_of k item =
    match item with
    | Clause.Par bodies -> { s_puts = [||]; s_op = O_par (List.map go_bbody bodies) }
    | Clause.Exec _ -> assert false (* runtime-only, never in templates *)
    | Clause.Call g ->
      (match Term.deref g with
       | g' when is_control g' -> { s_puts = [||]; s_op = O_goal (put_of g') }
       | Term.Atom s ->
         if !builtin_hook s 0 then { s_puts = [||]; s_op = O_builtin s }
         else if k = nsteps - 1 then { s_puts = [||]; s_op = O_execute s }
         else { s_puts = [||]; s_op = O_call (s, trim_at k) }
       | Term.Struct (s, args) ->
         let puts = Array.map put_of args in
         if !builtin_hook s (Array.length args) then
           { s_puts = puts; s_op = O_builtin s }
         else if k = nsteps - 1 then { s_puts = puts; s_op = O_execute s }
         else { s_puts = puts; s_op = O_call (s, trim_at k) }
       | (Term.Var _ | Term.Int _) as g' ->
         (* runtime dispatch decides (meta-variable or type error) *)
         { s_puts = [||]; s_op = O_goal (put_of g') })
  in
  let body = Array.of_list (List.mapi step_of clause.Clause.body) in
  let head, body = apply_mutation head body in
  let scratch_ok =
    let n = Array.length body in
    let rec ok i =
      if i >= n then true
      else
        match body.(i).s_op with
        | O_builtin _ -> ok (i + 1)
        | O_execute _ -> i = n - 1
        | O_call _ | O_goal _ | O_par _ -> false
    in
    ok 0
  in
  { c_head = head; c_body = body; c_nvars = nslots; c_scratch = scratch_ok }

(* The compiled form is cached on the clause through the extensible
   {!Clause.code} slot.  {!Database.freeze} precompiles every clause
   before parallel workers start; the lazy path below is for
   single-threaded callers on unfrozen databases (a concurrent duplicate
   compile would be idempotent — the code is a pure function of the
   immutable template — so the benign race costs at most a recompile). *)
type Clause.code += Compiled of t

let of_clause clause =
  match clause.Clause.code with
  | Compiled code -> code
  | _ ->
    let code = compile clause in
    clause.Clause.code <- Compiled code;
    code

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Frame slots start as this sentinel (compared with [==]): a head first
   occurrence overwrites it with a goal subterm, and a body [P_fresh]
   stores a fresh variable — variables never mentioned by the surviving
   execution path are never allocated. *)
let unset : Term.t = Term.Atom (Symbol.intern "$unset")

let no_args : Term.t array = [||]

(* A heap environment frame for one clause instance (used when the body
   needs a continuation — [c_scratch] bodies never allocate one). *)
let frame code =
  if code.c_nvars = 0 then no_args else Term.cells code.c_nvars unset

(* Per-agent execution scratch reused across clause tries: the two
   counters, a frame buffer and the argument-register file.  A scratch
   frame is dead as soon as the clause try has either failed or handed
   off (built its registers / heap environment), so one live buffer per
   scheduler agent suffices; each engine owns one scratch per worker or
   simulated agent, which keeps the parallel engines race-free without
   per-try allocation. *)
type scratch = {
  mutable s_instrs : int;
  s_steps : int ref; (* a ref so it threads into the general unifier *)
  mutable s_buf : Term.t array;
  mutable s_regs : Term.t array; (* the argument registers *)
}

let create_scratch () =
  { s_instrs = 0; s_steps = ref 0; s_buf = [||]; s_regs = [||] }

let[@inline never] grow_scratch sc n = sc.s_buf <- Array.make n unset

(* A frame for [code] carved out of the scratch buffer: slots [0 ..
   c_nvars-1] reset to [unset] (the buffer may be longer; slots past
   [c_nvars] are never read). *)

let scratch_frame sc code =
  let n = code.c_nvars in
  if n = 0 then no_args
  else begin
    if Array.length sc.s_buf < n then grow_scratch sc n
    else begin
      let buf = sc.s_buf in
      for i = 0 to n - 1 do
        Array.unsafe_set buf i unset
      done
    end;
    sc.s_buf
  end

exception Fail

(* The head-code interpreter: top-level recursions with the machine
   state threaded through arguments, so running a head allocates nothing
   beyond the bindings it creates — no per-try closure environments (the
   engines are allocation-bound on this path, so those environments were
   measurable).  [sc.s_instrs] accumulates executed instructions (the
   per-instruction cycle charge), [sc.s_steps] the nodes visited by the
   embedded general unifications ([*_val]/[*_ground]); bindings are
   trailed, and the caller undoes to its own mark on failure. *)

let unify_cell sc trail a b =
  if not (Unify.unify ~trail ~steps:sc.s_steps a b) then raise Fail

(* [exec_sub code sc frame trail ip cells pos write] runs U_*
   instructions against [cells] from [pos] until the matching U_pop;
   returns the instruction pointer past the U_pop. *)
let rec exec_sub code sc frame trail ip (cells : Term.t array) pos write =
  match code.(ip) with
  | U_pop -> ip + 1
  | ins ->
    sc.s_instrs <- sc.s_instrs + 1;
    let ip' =
      match ins with
      | U_atom s ->
        (if write then cells.(pos) <- Term.Atom s
         else
           match Term.deref cells.(pos) with
           | Term.Atom s' when Symbol.equal s s' -> ()
           | Term.Var v -> Unify.bind trail v (Term.Atom s)
           | _ -> raise Fail);
        ip + 1
      | U_int k ->
        (if write then cells.(pos) <- Term.Int k
         else
           match Term.deref cells.(pos) with
           | Term.Int k' when k = k' -> ()
           | Term.Var v -> Unify.bind trail v (Term.Int k)
           | _ -> raise Fail);
        ip + 1
      | U_var slot ->
        (if write then begin
           let v = Term.var () in
           cells.(pos) <- v;
           frame.(slot) <- v
         end
         else frame.(slot) <- cells.(pos));
        ip + 1
      | U_val slot ->
        if write then cells.(pos) <- frame.(slot)
        else unify_cell sc trail frame.(slot) cells.(pos);
        ip + 1
      | U_void ->
        (* matches anything; in write mode the cell still needs a value *)
        if write then cells.(pos) <- Term.var ();
        ip + 1
      | U_ground t ->
        (if write then cells.(pos) <- t
         else
           let cell = cells.(pos) in
           if not (Term.deref cell == t) then unify_cell sc trail t cell);
        ip + 1
      | U_struct (f, arity) ->
        if write then begin
          let cs = Term.cells arity Term.nil in
          cells.(pos) <- Term.Struct (f, cs);
          exec_sub code sc frame trail (ip + 1) cs 0 true
        end
        else (
          match Term.deref cells.(pos) with
          | Term.Struct (g, cs) when Symbol.equal f g && Array.length cs = arity
            ->
            exec_sub code sc frame trail (ip + 1) cs 0 false
          | Term.Var v ->
            let cs = Term.cells arity Term.nil in
            Unify.bind trail v (Term.Struct (f, cs));
            exec_sub code sc frame trail (ip + 1) cs 0 true
          | _ -> raise Fail)
      | Get_atom _ | Get_int _ | Get_var _ | Get_val _ | Get_struct _
      | Get_ground _ ->
        (* a mutated/truncated program cannot reach here in well-formed
           code; fail the clause rather than crash *)
        raise Fail
      | U_pop -> assert false (* handled by the enclosing match *)
    in
    exec_sub code sc frame trail ip' cells (pos + 1) write

let rec exec_top code n sc frame trail (args : Term.t array) ip =
  if ip >= n then ()
  else begin
    sc.s_instrs <- sc.s_instrs + 1;
    let ip' =
      match code.(ip) with
      | Get_atom (s, i) ->
        (match Term.deref args.(i) with
         | Term.Atom s' when Symbol.equal s s' -> ()
         | Term.Var v -> Unify.bind trail v (Term.Atom s)
         | _ -> raise Fail);
        ip + 1
      | Get_int (k, i) ->
        (match Term.deref args.(i) with
         | Term.Int k' when k = k' -> ()
         | Term.Var v -> Unify.bind trail v (Term.Int k)
         | _ -> raise Fail);
        ip + 1
      | Get_var (slot, i) ->
        frame.(slot) <- args.(i);
        ip + 1
      | Get_val (slot, i) ->
        unify_cell sc trail frame.(slot) args.(i);
        ip + 1
      | Get_ground (t, i) ->
        let arg = args.(i) in
        if not (Term.deref arg == t) then unify_cell sc trail t arg;
        ip + 1
      | Get_struct (f, arity, i) -> (
        match Term.deref args.(i) with
        | Term.Struct (g, cs) when Symbol.equal f g && Array.length cs = arity
          ->
          exec_sub code sc frame trail (ip + 1) cs 0 false
        | Term.Var v ->
          let cs = Term.cells arity Term.nil in
          Unify.bind trail v (Term.Struct (f, cs));
          exec_sub code sc frame trail (ip + 1) cs 0 true
        | _ -> raise Fail)
      | U_atom _ | U_int _ | U_var _ | U_val _ | U_void | U_struct _
      | U_ground _ | U_pop ->
        raise Fail (* see the mutation note above *)
    in
    exec_top code n sc frame trail args ip'
  end

let run_head code ~trail ~sc (frame : Term.t array) (args : Term.t array) =
  let code = code.c_head in
  match exec_top code (Array.length code) sc frame trail args 0 with
  | () -> true
  | exception Fail -> false

(* Builds one register (or goal subterm) from the frame.  [P_fresh]
   allocates the variable's one fresh cell and publishes it in the slot
   for later [P_val] reads; under a mutated program a [P_val] can read a
   still-unset slot — it then harmlessly produces the sentinel atom. *)
let rec build_put frame = function
  | P_const t -> t
  | P_val slot -> frame.(slot)
  | P_fresh slot ->
    let v = Term.var () in
    frame.(slot) <- v;
    v
  | P_void -> Term.var ()
  | P_struct (f, ps) -> Term.Struct (f, build_cells frame ps)

(* A structure's cells, built left to right: a [P_fresh] fills its slot
   before a later [P_val] of the same slot reads it. *)
and build_cells frame ps =
  match Array.length ps with
  | 1 -> [| build_put frame ps.(0) |]
  | 2 ->
    let x = build_put frame ps.(0) in
    let y = build_put frame ps.(1) in
    [| x; y |]
  | 3 ->
    let x = build_put frame ps.(0) in
    let y = build_put frame ps.(1) in
    let z = build_put frame ps.(2) in
    [| x; y; z |]
  | 4 ->
    let x = build_put frame ps.(0) in
    let y = build_put frame ps.(1) in
    let z = build_put frame ps.(2) in
    let w = build_put frame ps.(3) in
    [| x; y; z; w |]
  | _ -> build_wide frame ps

and[@inline never] build_wide frame ps = Array.map (build_put frame) ps

let[@inline never] grow_regs sc n = sc.s_regs <- Array.make (max n 8) unset

(* Loads a step's argument registers.  The register file is scratch
   state: put trees only read the frame and constants, never the
   registers, so an [O_execute] may overwrite the registers that hold
   its own caller's arguments in place. *)

let load_regs sc frame (puts : put array) =
  let n = Array.length puts in
  if Array.length sc.s_regs < n then grow_regs sc n;
  let regs = sc.s_regs in
  for i = 0 to n - 1 do
    regs.(i) <- build_put frame puts.(i)
  done;
  regs

(* Instantiates parallel-conjunction branches into an ordinary
   {!Clause.body} (the parcall machinery consumes items, not code). *)
let rec inst_bbody frame b : Clause.body = List.map (inst_bitem frame) b

and inst_bitem frame = function
  | B_call p -> Clause.Call (build_put frame p)
  | B_par bodies -> Clause.Par (List.map (inst_bbody frame) bodies)

(* ------------------------------------------------------------------ *)
(* Listings (golden tests, debugging)                                  *)
(* ------------------------------------------------------------------ *)

let pp_term = Ace_term.Pp.pp

let pp_instr ppf = function
  | Get_atom (s, i) -> Format.fprintf ppf "get_atom %s, A%d" (Symbol.name s) i
  | Get_int (n, i) -> Format.fprintf ppf "get_int %d, A%d" n i
  | Get_var (s, i) -> Format.fprintf ppf "get_var X%d, A%d" s i
  | Get_val (s, i) -> Format.fprintf ppf "get_val X%d, A%d" s i
  | Get_struct (f, n, i) ->
    Format.fprintf ppf "get_struct %s/%d, A%d" (Symbol.name f) n i
  | Get_ground (t, i) -> Format.fprintf ppf "get_ground %a, A%d" pp_term t i
  | U_atom s -> Format.fprintf ppf "unify_atom %s" (Symbol.name s)
  | U_int n -> Format.fprintf ppf "unify_int %d" n
  | U_var s -> Format.fprintf ppf "unify_var X%d" s
  | U_val s -> Format.fprintf ppf "unify_val X%d" s
  | U_void -> Format.fprintf ppf "unify_void"
  | U_struct (f, n) ->
    Format.fprintf ppf "unify_struct %s/%d" (Symbol.name f) n
  | U_ground t -> Format.fprintf ppf "unify_ground %a" pp_term t
  | U_pop -> Format.fprintf ppf "pop"

let rec pp_put ppf = function
  | P_const t -> pp_term ppf t
  | P_fresh s | P_val s -> Format.fprintf ppf "X%d" s
  | P_void -> Format.fprintf ppf "_"
  | P_struct (f, ps) ->
    Format.fprintf ppf "%s(" (Symbol.name f);
    Array.iteri
      (fun i p ->
        if i > 0 then Format.fprintf ppf ",";
        pp_put ppf p)
      ps;
    Format.fprintf ppf ")"

(* One register load.  The top-level put determines the mnemonic, WAM
   style; nested puts render as terms with slots written X<n>. *)
let pp_reg_put ppf i p =
  match p with
  | P_const (Term.Atom s) ->
    Format.fprintf ppf "put_atom %s, A%d" (Symbol.name s) i
  | P_const (Term.Int n) -> Format.fprintf ppf "put_int %d, A%d" n i
  | P_const t -> Format.fprintf ppf "put_ground %a, A%d" pp_term t i
  | P_fresh s -> Format.fprintf ppf "put_var X%d, A%d" s i
  | P_val s -> Format.fprintf ppf "put_val X%d, A%d" s i
  | P_void -> Format.fprintf ppf "put_void A%d" i
  | P_struct _ -> Format.fprintf ppf "put_struct %a, A%d" pp_put p i

let pp_listing ppf code =
  let depth = ref 0 in
  Array.iter
    (fun ins ->
      (match ins with U_pop -> decr depth | _ -> ());
      Format.fprintf ppf "  %s%a@." (String.make (2 * !depth) ' ') pp_instr ins;
      match ins with
      | Get_struct _ | U_struct _ -> incr depth
      | _ -> ())
    code.c_head;
  let rec pp_items indent items =
    List.iter
      (fun item ->
        match item with
        | B_call p -> Format.fprintf ppf "  %scall %a@." indent pp_put p
        | B_par bodies ->
          Format.fprintf ppf "  %spar@." indent;
          List.iter
            (fun b ->
              Format.fprintf ppf "  %s branch@." indent;
              pp_items (indent ^ "  ") b)
            bodies)
      items
  in
  Array.iter
    (fun step ->
      Array.iteri (fun i p -> Format.fprintf ppf "  %a@." (fun ppf -> pp_reg_put ppf i) p) step.s_puts;
      match step.s_op with
      | O_builtin s ->
        Format.fprintf ppf "  builtin %s/%d@." (Symbol.name s)
          (Array.length step.s_puts)
      | O_call (s, trim) ->
        Format.fprintf ppf "  call %s/%d, trim %d@." (Symbol.name s)
          (Array.length step.s_puts) trim
      | O_execute s ->
        Format.fprintf ppf "  execute %s/%d@." (Symbol.name s)
          (Array.length step.s_puts)
      | O_goal p -> Format.fprintf ppf "  goal %a@." pp_put p
      | O_par bodies -> pp_items "" [ B_par bodies ])
    code.c_body

let listing code = Format.asprintf "%a" pp_listing code
