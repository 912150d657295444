(* Clause database with first-argument indexing, and column stores for
   predicates of facts.

   First-argument indexing matters beyond speed: the engines create a
   choice point only when more than one clause survives indexing, so the
   index is what makes *runtime determinacy* observable — the property the
   LPCO and shallow-parallelism optimizations of the paper are driven by.

   Indexing is fully integer-keyed: predicates are found by indexing an
   array with their symbol id ({!Sym_index}), and a switched argument is
   read as two integers (a case tag and a value) that probe an
   open-addressing case table ({!Case}).  No string is compared or
   hashed anywhere on the lookup path — callers resolve names through
   the symbol intern table at the (cold) API boundary.

   Representation.  Each predicate keeps its clauses in two lists, the
   asserta'd ones in source order and the assertz'd ones newest first,
   so asserting N clauses costs O(N) in either direction.  {!freeze}
   builds two case-table trees per predicate from them: a one-level
   first-argument table, walked by the interpreted {!lookup}, and the
   switch-on-term dispatch tree with deep argument indexing, walked by
   the compiled {!find_code}.  Neither walk allocates.  Until the
   next freeze, and always for a session overlay's own clauses (few,
   and changing often), a lookup filters the clause list by one linear
   first-argument test instead.

   Facts as data.  On a database without a base, {!freeze} turns each
   untabled predicate whose clauses are all facts with atomic arguments
   into a {!Store} (one array of shared constants per argument, indexed
   per argument on demand) and drops its clause records: its dispatch
   tree is one leaf, [Rows], which sends compiled calls to the rows.
   Everything that reads clauses (the interpreted lookup, {!clauses_of},
   {!first_arg_exclusive}, the analyses) reads the predicate's clause
   view instead: one fact clause per row, with the first-argument table
   such clauses had, built on first use under the freeze lock.  An
   assert into the predicate turns it back into clauses.

   The structure is mutated only at assert time; lookups are read-only
   except for the on-demand indexes and views, each built under the
   freeze lock and published through an [Atomic], so a consulted program
   can be shared by concurrently running engine workers (the hardware
   or-parallel engine relies on this). *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol

(* Values filed under (symbol id, arity), in an array of chains at slot
   [id land (length - 1)] (the length is a power of two).  A dense index
   — an ordinary database's — grows only when a value is filed, to a
   length past every id filed, so there the mask is the identity: a
   lookup is one load and a walk over that symbol's arities (almost
   always one link), with no hashing, no key and no [Some] allocated
   (each link stores the [Some v] a hit returns).  A symbol interned
   after the last growth maps to a slot whose chain lacks its id and
   reads as absent.  A sparse index — a session overlay's — grows with
   the number of values it holds instead, never with symbol ids, so a
   session costs in proportion to the predicates it touches.  [fold]
   walks the values filed, not the slots, so it too costs in proportion
   to the predicates. *)
module Sym_index = struct
  type 'a chain =
    | Nil
    | Link of { id : int; arity : int; found : 'a option; next : 'a chain }
      (* [found] is always [Some v] *)

  type 'a t = {
    mutable slots : 'a chain array;
    mutable filed : (int * int * 'a) list; (* every value, newest first *)
    mutable count : int;
    dense : bool;
  }

  let create ~dense = { slots = [| Nil |]; filed = []; count = 0; dense }

  let rec find_in id arity = function
    | Nil -> None
    | Link l -> if l.id = id && l.arity = arity then l.found else find_in id arity l.next

  let find t id arity =
    let slots = t.slots in
    find_in id arity slots.(id land (Array.length slots - 1))

  let fold f t acc =
    List.fold_left (fun acc (id, arity, v) -> f id arity v acc) acc t.filed

  let file slots (id, arity, v) =
    let i = id land (Array.length slots - 1) in
    slots.(i) <- Link { id; arity; found = Some v; next = slots.(i) }

  (* Files [v] under a key [find] does not hold yet. *)
  let add t id arity v =
    t.filed <- (id, arity, v) :: t.filed;
    t.count <- t.count + 1;
    let need = if t.dense then id + 1 else t.count in
    if need > Array.length t.slots then begin
      let rec above len = if len >= need then len else above (2 * len) in
      t.slots <- Array.make (above (Array.length t.slots)) Nil;
      List.iter (file t.slots) t.filed
    end
    else file t.slots (id, arity, v)
end

(* Switch-on-term case-table tree (built by {!freeze}, walked by
   {!lookup} and {!find_code}), with leaves of any type: the
   first-argument table's are [Clause.t list option], the dispatch
   tree's are {!found}.

   A [Dswitch] discriminates on the subterm at [d_path] — an array of
   argument positions from the call's root, so paths longer than one
   look *inside* structure arguments, beyond the classic first-argument
   key.  Its case table maps each rigid key to the subtree over the
   clauses compatible with it (that key's clauses plus the
   variable-at-path clauses, in source order); a rigid call key with no
   case gets [d_anys] (just the variable-at-path clauses) and a call
   with a variable at the path [d_all] (every clause of the subtree).
   Dropping a clause therefore only ever happens on provably
   non-unifiable rigid-key disagreement.

   A walk allocates nothing: a {!Case} key probes the case table, whose
   slot [i] has its subtree at [d_subs.(i)], and every result a walk
   returns is a leaf built here, once. *)
type 'a dtree =
  | Dleaf of 'a
  | Dswitch of {
      d_path : int array;
      d_keys : int array;
      d_subs : 'a dtree array;
      d_anys : 'a;
      d_all : 'a;
    }

type rows = {
  store : Store.t;
  front : Clause.t list;
  back : Clause.t list;
  dead : int list;
}

type found =
  | Undefined
  | Clauses of Clause.t list
  | Rows of rows

(* A store's clause view: row [r]'s fact clause at [v_clauses.(r)], and
   the first-argument table over them. *)
type view = {
  v_clauses : Clause.t array;
  v_first : Clause.t list option dtree;
}

(* Not built yet (compared with [==]). *)
let no_view = { v_clauses = [||]; v_first = Dleaf None }

type pred = {
  p_name : Symbol.t;
  p_arity : int;
  mutable front : Clause.t list; (* asserta'd clauses, source order *)
  mutable back_rev : Clause.t list; (* assertz'd clauses, newest first *)
  (* Indexes, built by {!freeze} on a database without a base and
     dropped by asserts.  Lookups never write them, so a frozen database
     stays read-only and can be shared across domains. *)
  mutable first_arg : Clause.t list option dtree option;
    (* one-level first-argument table (a store's is its view's) *)
  mutable dtree : found dtree option;
    (* deep-indexing dispatch tree; a store's is one [Rows] leaf *)
  mutable store : Store.t option;
    (* the rows, when freeze made the predicate a store; its clause
       lists are then empty *)
  view : view Atomic.t; (* a store's clause view, [no_view] until read *)
}

type t = {
  preds : pred Sym_index.t;
    (* dense on an ordinary database, growing only at consult and
       assert (never once frozen and shared); sparse on an overlay,
       holding the session's own predicates *)
  mutable frozen : bool;
    (* indexes are built (on an overlay: clauses are compiled) and the
       database is read-only; cleared by asserts, making a second
       {!freeze} O(1) *)
  freeze_lock : Mutex.t;
    (* serializes index construction: two sessions freezing the shared
       base concurrently must not race the build; also serializes the
       stores' on-demand indexes and clause views *)
  tabled : unit Sym_index.t;
    (* predicates declared [:- table name/arity].  Registered at consult
       time, read-only afterwards.  An overlay shares its base's
       registry (sessions never declare tables). *)
  mutable has_tabled : bool;
    (* fast gate so the engines' dispatch loops pay one load per call
       on programs with no tabled predicate *)
  base : t option;
    (* [Some b]: this database is a session overlay over the frozen
       base [b] — its own preds hold only the session's asserts, and
       every lookup merges them around [b]'s (never-mutated) result *)
  mutable removed : Clause.t list;
    (* overlay only: base clauses retracted by this session, tombstoned
       by physical identity so the shared base stays untouched (the
       session's own clauses are deleted from its preds instead) *)
  mutable dead : (Store.t * int) list;
    (* overlay only: base rows retracted by this session *)
}

let create () =
  {
    preds = Sym_index.create ~dense:true;
    frozen = false;
    freeze_lock = Mutex.create ();
    tabled = Sym_index.create ~dense:true;
    has_tabled = false;
    base = None;
    removed = [];
    dead = [];
  }

let find_pred_sym db sym arity = Sym_index.find db.preds (Symbol.id sym) arity

let find_pred db name arity = find_pred_sym db (Symbol.intern name) arity

let get_pred db sym arity =
  match find_pred_sym db sym arity with
  | Some p -> p
  | None ->
    let p =
      {
        p_name = sym;
        p_arity = arity;
        front = [];
        back_rev = [];
        first_arg = None;
        dtree = None;
        store = None;
        view = Atomic.make no_view;
      }
    in
    Sym_index.add db.preds (Symbol.id sym) arity p;
    p

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

(* A dereferenced subterm's stand-in when a variable sits along a path
   or the path cannot descend: it selects no case. *)
let unbound = Term.Var { Term.vid = -1; binding = None }

let rec at_path_from (path : int array) t i =
  let t = Term.deref t in
  if i = Array.length path then t
  else
    match t with
    | Term.Struct (_, cells) when path.(i) < Array.length cells ->
      at_path_from path cells.(path.(i)) (i + 1)
    | Term.Struct _ | Term.Var _ | Term.Atom _ | Term.Int _ -> unbound

(* The dereferenced subterm at [path] of a call or head whose arguments
   are the first cells of [args]. *)
let at_path (args : Term.t array) path = at_path_from path args.(path.(0)) 1

(* The one dispatch walk, over a goal's arguments or a register file. *)
let rec walk tree (args : Term.t array) =
  match tree with
  | Dleaf found -> found
  | Dswitch sw ->
    let t = at_path args sw.d_path in
    let tag = Case.case_tag t in
    if tag = 0 then sw.d_all
    else
      let s = Case.slot sw.d_keys tag (Case.case_value t) in
      if sw.d_keys.(2 * s) = 0 then sw.d_anys else walk sw.d_subs.(s) args

let head_args clause =
  match Term.deref clause.Clause.head with
  | Term.Struct (_, args) -> args
  | Term.Atom _ | Term.Int _ | Term.Var _ -> [||]

(* The one linear first-argument test, for clauses no freeze has
   indexed: those of [clauses] (kept in order) whose head's first
   argument can match the call's, whose arguments are the first cells
   of [args].  It drops what the first-argument table drops. *)
let first_arg_filter arity (args : Term.t array) clauses =
  let a = if arity = 0 then unbound else Term.deref args.(0) in
  let tag = Case.case_tag a in
  if tag = 0 then clauses
  else
    let v = Case.case_value a in
    List.filter
      (fun c ->
        let h = Term.deref (head_args c).(0) in
        let t = Case.case_tag h in
        t = 0 || (t = tag && Case.case_value h = v))
      clauses

(* ------------------------------------------------------------------ *)
(* Building the case-table trees                                       *)
(* ------------------------------------------------------------------ *)

(* Bounds on tree construction: paths never look more than [max_depth]
   positions into the call, and a node tracks at most [max_paths]
   candidate paths.  Both cap build time on wide fact tables while
   leaving typical recursive predicates fully discriminated. *)
let max_depth = 3
let max_paths = 8

(* The clauses of one node grouped by their key at a path: clause [e]
   falls in case [which.(e)] (-1: a variable at the path), case [k]'s
   tag and value are [keys.(2k)] and [keys.(2k+1)], first occurrence
   first; [worst] counts the largest case's clauses, [anys] the
   variable-at-path ones. *)
type grouping = {
  which : int array;
  keys : int array;
  cases : int;
  worst : int;
  anys : int;
}

let group heads path =
  let n = Array.length heads in
  let cap = Case.slot_count n in
  let seen = Array.make (2 * cap) 0 and case_at = Array.make cap 0 in
  let which = Array.make n (-1) and keys = Array.make (2 * n) 0 in
  let sizes = Array.make n 0 in
  let cases = ref 0 and worst = ref 0 and anys = ref 0 in
  Array.iteri
    (fun e args ->
      let t = at_path args path in
      let tag = Case.case_tag t in
      if tag = 0 then incr anys
      else begin
        let v = Case.case_value t in
        let s = Case.slot seen tag v in
        if seen.(2 * s) = 0 then begin
          seen.(2 * s) <- tag;
          seen.((2 * s) + 1) <- v;
          case_at.(s) <- !cases;
          keys.(2 * !cases) <- tag;
          keys.((2 * !cases) + 1) <- v;
          incr cases
        end;
        let k = case_at.(s) in
        which.(e) <- k;
        sizes.(k) <- sizes.(k) + 1;
        if sizes.(k) > !worst then worst := sizes.(k)
      end)
    heads;
  { which; keys; cases = !cases; worst = !worst; anys = !anys }

let first_path = [| 0 |]

(* The grouping of clauses [cl] (source order) by first argument; the
   first-argument table is built from it. *)
let group_first cl = group (Array.map head_args cl) first_path

(* Two ascending lists of clause positions merged, source order. *)
let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys -> if x < y then x :: merge xs b else y :: merge a ys

(* A switch at [path] over [clauses] (source order; [cl] the same as an
   array), grouped as [g], with leaves [leaf clauses].  Each case's
   subtree is [sub tag compatible], [compatible] being the clauses that
   can match the case's key (tag [tag]), in source order. *)
let switch ~leaf clauses cl path g sub =
  let n = Array.length cl in
  let cases = Array.make g.cases [] and anys = ref [] in
  for e = n - 1 downto 0 do
    let k = g.which.(e) in
    if k < 0 then anys := e :: !anys else cases.(k) <- e :: cases.(k)
  done;
  let anys = !anys in
  let pick positions = List.map (fun e -> cl.(e)) positions in
  let cap = Case.slot_count g.cases in
  let keys = Array.make (2 * cap) 0
  and subs = Array.make cap (Dleaf (leaf [])) in
  for k = 0 to g.cases - 1 do
    let tag = g.keys.(2 * k) and v = g.keys.((2 * k) + 1) in
    let s = Case.slot keys tag v in
    keys.(2 * s) <- tag;
    keys.((2 * s) + 1) <- v;
    subs.(s) <- sub tag (pick (merge cases.(k) anys))
  done;
  Dswitch
    {
      d_path = path;
      d_keys = keys;
      d_subs = subs;
      d_anys = leaf (pick anys);
      d_all = leaf clauses;
    }

let some_clauses clauses = Some clauses

(* The interpreted path's index: one switch on argument 1 whenever any
   head has a rigid first argument, however little that discriminates,
   so a call keeps exactly the clauses the linear test keeps ([p(a).
   p(X).] called as [p(b)] gets [p(X)] alone). *)
let build_first_arg arity clauses =
  if arity = 0 then Dleaf (Some clauses)
  else
    let cl = Array.of_list clauses in
    let g = group_first cl in
    if g.cases = 0 then Dleaf (Some clauses)
    else
      switch ~leaf:some_clauses clauses cl first_path g (fun _ picked ->
          Dleaf (Some picked))

let code_clauses clauses = Clauses clauses

(* Builds the dispatch tree over [clauses] (source order).  A path is
   worth switching on when it has at least two distinct rigid keys and
   every case strictly shrinks (largest case + variable-keyed clauses <
   total).  Each structure case adds the positions inside that
   structure as new candidate paths — that is the deep indexing.

   Candidates are tried leftmost-shallowest first and the first
   qualifying path wins, not the best-scoring one: calls instantiate
   early (input) arguments far more often than late (output) ones, and
   a switch on a position that is unbound at run time degenerates to
   [d_all] however well it discriminates the clause heads.  Refinements
   of the matched position go ahead of later arguments for the same
   reason.  (A store indexes every argument on demand instead.) *)
let rec build_dtree clauses paths =
  match clauses with
  | [] | [ _ ] -> Dleaf (Clauses clauses)
  | _ ->
    let cl = Array.of_list clauses in
    let heads = Array.map head_args cl in
    let n = Array.length cl in
    let rec first = function
      | [] -> Dleaf (Clauses clauses)
      | path :: rest ->
        let g = group heads path in
        if g.cases >= 2 && g.worst + g.anys < n then
          let rest_paths = List.filter (fun p -> p != path) paths in
          switch ~leaf:code_clauses clauses cl path g (fun tag picked ->
              let sub_paths =
                if tag land 3 = 3 && Array.length path < max_depth then
                  let ext =
                    List.init (tag lsr 2) (fun j -> Array.append path [| j |])
                  in
                  List.filteri (fun i _ -> i < max_paths) (ext @ rest_paths)
                else rest_paths
              in
              build_dtree picked sub_paths)
        else first rest
    in
    first paths

(* ------------------------------------------------------------------ *)
(* Stores and their clause views                                       *)
(* ------------------------------------------------------------------ *)

let atomic t =
  match Term.deref t with
  | Term.Atom _ | Term.Int _ -> true
  | Term.Var _ | Term.Struct _ -> false

let atomic_fact c = c.Clause.body = [] && Array.for_all atomic (head_args c)

(* One shared block per distinct atom and integer of the database's
   stores: a cell is then a word, and equal constants are one term. *)
let shared consts t =
  let key = (Case.case_tag t, Case.case_value t) in
  match Hashtbl.find_opt consts key with
  | Some t' -> t'
  | None ->
    Hashtbl.add consts key t;
    t

let make_store db consts p clauses =
  let rows = List.length clauses in
  let cols = Array.init p.p_arity (fun _ -> Array.make rows Term.nil) in
  List.iteri
    (fun r c ->
      Array.iteri
        (fun j a -> cols.(j).(r) <- shared consts (Term.deref a))
        (head_args c))
    clauses;
  Store.create ~lock:db.freeze_lock p.p_name ~rows cols

(* A store's clause view, built on first use: one fact clause per row
   (a closed clause, as the consulted fact was) and the first-argument
   table over them, so interpreted calls and the simulators see the
   candidates and charges they saw before the predicate became a
   store. *)
let[@inline never] build_view db p st =
  Mutex.protect db.freeze_lock (fun () ->
      let v = Atomic.get p.view in
      if v != no_view then v
      else begin
        let cl =
          Array.init (Store.rows st) (fun r ->
              Clause.of_term (Store.row_term st r))
        in
        let v =
          { v_clauses = cl; v_first = build_first_arg p.p_arity (Array.to_list cl) }
        in
        Atomic.set p.view v;
        v
      end)

let view db p st =
  let v = Atomic.get p.view in
  if v != no_view then v else build_view db p st

(* All clauses in source order. *)
let all_clauses db p =
  match p.store with
  | Some st -> Array.to_list (view db p st).v_clauses
  | None -> p.front @ List.rev p.back_rev

let holds_clauses p =
  match p.front, p.back_rev with [], [] -> false | _ -> true

(* An assert into a store turns it back into clauses (its view's), to
   be indexed as clauses or stored again by the next freeze. *)
let thaw db p =
  match p.store with
  | None -> ()
  | Some st ->
    p.back_rev <- List.rev (Array.to_list (view db p st).v_clauses);
    p.store <- None;
    Atomic.set p.view no_view

let invalidate db p =
  db.frozen <- false;
  p.first_arg <- None;
  p.dtree <- None

let assertz db clause =
  let sym, arity = Clause.functor_arity clause in
  let p = get_pred db sym arity in
  thaw db p;
  p.back_rev <- clause :: p.back_rev;
  invalidate db p

let asserta db clause =
  let sym, arity = Clause.functor_arity clause in
  let p = get_pred db sym arity in
  thaw db p;
  p.front <- clause :: p.front;
  invalidate db p

(* ------------------------------------------------------------------ *)
(* Freezing                                                            *)
(* ------------------------------------------------------------------ *)

(* Builds every predicate's first-argument table and dispatch tree, so
   later lookups are pure reads — safe to share across domains (the
   next assert drops the affected predicate's, so freeze again after
   updates) — and precompiles every clause to instruction code, so
   parallel workers on the compiled path never write.  An untabled
   predicate of atomic facts becomes a store instead, its clauses
   dropped.  An overlay's own clauses are only compiled: its lookups
   filter them linearly. *)
let freeze_preds db =
  let consts = Hashtbl.create 1024 in
  Sym_index.fold
    (fun _ _ p () ->
      if db.base <> None then
        List.iter (fun c -> ignore (Code.of_clause c)) (all_clauses db p)
      else if p.store = None then begin
        let clauses = all_clauses db p in
        if
          clauses <> []
          && List.for_all atomic_fact clauses
          && Sym_index.find db.tabled (Symbol.id p.p_name) p.p_arity = None
        then begin
          let st = make_store db consts p clauses in
          p.store <- Some st;
          p.front <- [];
          p.back_rev <- [];
          p.dtree <- Some (Dleaf (Rows { store = st; front = []; back = []; dead = [] }))
        end
        else begin
          p.first_arg <- Some (build_first_arg p.p_arity clauses);
          p.dtree <-
            Some (build_dtree clauses (List.init p.p_arity (fun i -> [| i |])));
          List.iter (fun c -> ignore (Code.of_clause c)) clauses
        end
      end)
    db.preds ()

(* Idempotent: O(1) on an already-frozen database, so per-query freezing
   (as the engine front end does) costs nothing after the first. *)
let rec freeze db =
  (match db.base with Some b -> freeze b | None -> ());
  (* Double-checked under the lock, and the flag is set only AFTER the
     indexes are built: a concurrent freezer that loses the race blocks
     on the mutex until the build is done, and one that reads [frozen =
     true] without the lock can only do so once the indexes are
     complete.  (The unlocked fast path makes the per-query re-freeze of
     an already-frozen database one load.) *)
  if not db.frozen then begin
    Mutex.lock db.freeze_lock;
    match
      if not db.frozen then begin
        freeze_preds db;
        db.frozen <- true
      end
    with
    | () -> Mutex.unlock db.freeze_lock
    | exception e ->
      Mutex.unlock db.freeze_lock;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Session overlays                                                    *)
(* ------------------------------------------------------------------ *)

let overlay b =
  if b.base <> None then
    invalid_arg "Database.overlay: the base is itself an overlay";
  freeze b;
  {
    preds = Sym_index.create ~dense:false;
    frozen = true; (* nothing to compile yet *)
    freeze_lock = Mutex.create ();
    tabled = b.tabled; (* shared: sessions never declare tables *)
    has_tabled = b.has_tabled;
    base = Some b;
    removed = [];
    dead = [];
  }

let base db = db.base

(* This session's tombstoned rows of [st]. *)
let dead_rows db st =
  match db.dead with
  | [] -> []
  | dead -> List.filter_map (fun (s, r) -> if s == st then Some r else None) dead

(* The base clauses this session hides from [sym/arity]: its
   tombstoned clauses, and the clauses of its tombstoned rows in the
   base's clause view. *)
let hidden db b sym arity =
  match db.dead with
  | [] -> db.removed
  | _ :: _ -> (
    match find_pred_sym b sym arity with
    | Some ({ store = Some st; _ } as p) -> (
      match dead_rows db st with
      | [] -> db.removed
      | dead ->
        let v = view b p st in
        List.map (fun r -> v.v_clauses.(r)) dead @ db.removed)
    | Some { store = None; _ } | None -> db.removed)

(* The base's clauses [bs] of [sym/arity] without this session's
   tombstones. *)
let visible db b sym arity bs =
  match hidden db b sym arity with
  | [] -> bs
  | hidden -> List.filter (fun c -> not (List.memq c hidden)) bs

(* The session view of one interpreted lookup, in overlay source order:
   asserta'd session clauses, then the base's (indexed) answer with this
   session's tombstones filtered out, then assertz'd session clauses,
   both session parts through the linear first-argument test.  [None]
   exactly when neither side defines the predicate.  When the session
   holds no clause of the predicate and has no tombstones, the view is
   the base's answer itself, not a copy. *)
let overlay_view db b own sym arity (args : Term.t array) base_part =
  match own, base_part with
  | Some p, _ when holds_clauses p ->
    Some
      (first_arg_filter arity args p.front
      @ visible db b sym arity (Option.value base_part ~default:[])
      @ first_arg_filter arity args (List.rev p.back_rev))
  | None, None -> None
  | _, Some bs -> (
    match db.removed, db.dead with
    | [], [] -> base_part
    | _ -> Some (visible db b sym arity bs))
  | Some _, None -> Some []

(* The session view of one compiled lookup: for a store, the base's rows
   with this session's clauses around them and its tombstoned rows
   listed (the base's own [Rows] when the session touches neither); for
   clauses, as {!overlay_view}. *)
let overlay_code db b own sym arity (args : Term.t array) base_found =
  match base_found with
  | Rows r -> (
    match own, dead_rows db r.store with
    | Some p, dead when holds_clauses p ->
      Rows
        {
          r with
          front = first_arg_filter arity args p.front;
          back = first_arg_filter arity args (List.rev p.back_rev);
          dead;
        }
    | (Some _ | None), [] -> base_found
    | (Some _ | None), dead -> Rows { r with dead })
  | Clauses bs -> (
    match own with
    | Some p when holds_clauses p ->
      Clauses
        (first_arg_filter arity args p.front
        @ visible db b sym arity bs
        @ first_arg_filter arity args (List.rev p.back_rev))
    | Some _ | None -> (
      match db.removed with
      | [] -> base_found
      | _ :: _ -> Clauses (visible db b sym arity bs)))
  | Undefined -> (
    match own with
    | Some p ->
      Clauses
        (first_arg_filter arity args p.front
        @ first_arg_filter arity args (List.rev p.back_rev))
    | None -> Undefined)

(* Deletes [c] from the session's own clauses, if it is one: a clause
   the session asserted and now retracts leaves the overlay, instead of
   staying behind as a tombstone that every later lookup filters out.
   [false] when [c] is a base clause. *)
let remove_own db c =
  let sym, arity = Clause.functor_arity c in
  let drop = List.filter (fun c' -> c' != c) in
  match find_pred_sym db sym arity with
  | Some p when List.memq c p.front ->
    p.front <- drop p.front;
    invalidate db p;
    true
  | Some p when List.memq c p.back_rev ->
    p.back_rev <- drop p.back_rev;
    invalidate db p;
    true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)
(* ------------------------------------------------------------------ *)

(* The linear test over all of [p]'s clauses, until the next freeze;
   out of line, so the frozen path's bodies stay small. *)
let[@inline never] unindexed p (args : Term.t array) =
  first_arg_filter p.p_arity args (p.front @ List.rev p.back_rev)

(* One database's own interpreted candidates for a call whose arguments
   are the first cells of [args]: a walk of the predicate's
   first-argument table (a store's view's) once frozen, the linear test
   before.  [None] when the predicate is undefined (distinct from
   defined with no matching clause). *)
let candidates db sym arity (args : Term.t array) =
  match find_pred_sym db sym arity with
  | None -> None
  | Some p -> (
    match p.first_arg, p.store with
    | Some tree, _ -> walk tree args
    | None, Some st -> walk (view db p st).v_first args
    | None, None -> Some (unindexed p args))

(* The compiled counterpart: a walk of the dispatch tree (a store's one
   [Rows] leaf). *)
let candidates_code db sym arity (args : Term.t array) =
  match find_pred_sym db sym arity with
  | None -> Undefined
  | Some p -> (
    match p.dtree with
    | Some tree -> walk tree args
    | None -> Clauses (unindexed p args))

(* A database without a base pays one load and branch for overlays; an
   overlay merges its own clauses around the base's answer, never
   touching the base's indexes. *)
let lookup_args db sym arity (args : Term.t array) =
  match db.base with
  | None -> candidates db sym arity args
  | Some b ->
    overlay_view db b (find_pred_sym db sym arity) sym arity args
      (candidates b sym arity args)

(* On the compiled path the base's part comes through its dispatch tree
   and the session's through the first-argument test — both drop only
   provably non-unifiable clauses, so the combination is still sound. *)
let find_code db sym arity (args : Term.t array) =
  match db.base with
  | None -> candidates_code db sym arity args
  | Some b ->
    overlay_code db b (find_pred_sym db sym arity) sym arity args
      (candidates_code b sym arity args)

let lookup db call =
  match Term.deref call with
  | Term.Struct (sym, args) -> lookup_args db sym (Array.length args) args
  | Term.Atom sym -> lookup_args db sym 0 Code.no_args
  | Term.Int _ | Term.Var _ -> invalid_arg "Database.lookup: callable expected"

(* Retracts the first clause of the session view whose [H :- B] term
   unifies with [pattern]'s.  The candidates are the session view's
   compiled lookup on the pattern's head, so only clauses (or rows)
   that can match are unified.  A clause the session asserted leaves
   its overlay; a base clause or row is tombstoned, as the base is
   never written.  Returns [false] when nothing matched. *)
let retract db pattern =
  if db.base = None then
    invalid_arg "Database.retract: session overlay expected";
  let pat = Clause.to_term (Clause.rename pattern) in
  let matches c = Ace_term.Unify.matches (Clause.to_term c) pat in
  let take c =
    if not (remove_own db c) then db.removed <- c :: db.removed;
    true
  in
  let take_first clauses =
    match List.find_opt matches clauses with None -> false | Some c -> take c
  in
  (* the first row of [r]'s rows that this session shows and that
     matches, tombstoned *)
  let take_row (r : rows) =
    let st = r.store and sel = Store.sel () in
    Store.select st (head_args pattern) sel;
    let rec scan pos =
      pos < sel.Store.hi
      &&
      let row = Store.row_at sel.Store.order pos in
      if (not (List.mem row r.dead))
         && Ace_term.Unify.matches (Store.row_term st row) pat
      then begin
        db.dead <- (st, row) :: db.dead;
        true
      end
      else scan (pos + 1)
    in
    scan sel.Store.lo
  in
  let sym, arity = Clause.functor_arity pattern in
  match find_code db sym arity (head_args pattern) with
  | Undefined -> false
  | Clauses clauses -> take_first clauses
  | Rows r -> take_first r.front || take_row r || take_first r.back

(* Overlay-aware introspection (cold paths). *)

let mem db name arity =
  find_pred db name arity <> None
  || match db.base with None -> false | Some b -> find_pred b name arity <> None

let clauses_of db name arity =
  let sym = Symbol.intern name in
  let all db =
    match find_pred_sym db sym arity with None -> [] | Some p -> all_clauses db p
  in
  match db.base with
  | None -> all db
  | Some b ->
    let front, back =
      match find_pred_sym db sym arity with
      | None -> ([], [])
      | Some p -> (p.front, List.rev p.back_rev)
    in
    front @ visible db b sym arity (all b) @ back

let store db name arity =
  let find db = Option.bind (find_pred db name arity) (fun p -> p.store) in
  match db.base with None -> find db | Some b -> find b

let tombstones db = List.length db.removed + List.length db.dead

(* ------------------------------------------------------------------ *)
(* Tabling registry                                                    *)
(* ------------------------------------------------------------------ *)

let set_tabled db name arity =
  let id = Symbol.id (Symbol.intern name) in
  if Option.is_none (Sym_index.find db.tabled id arity) then
    Sym_index.add db.tabled id arity ();
  db.has_tabled <- true

let is_tabled db sym arity =
  db.has_tabled && Option.is_some (Sym_index.find db.tabled (Symbol.id sym) arity)

let is_tabled_goal db goal =
  db.has_tabled
  &&
  match Term.deref goal with
  | Term.Struct (sym, args) -> is_tabled db sym (Array.length args)
  | Term.Atom sym -> is_tabled db sym 0
  | Term.Int _ | Term.Var _ -> false

let tabled_preds db =
  Sym_index.fold
    (fun id arity () acc -> (Symbol.name (Symbol.of_id id), arity) :: acc)
    db.tabled []
  |> List.sort compare

let predicates db =
  let fold db acc =
    Sym_index.fold
      (fun _ _ p acc -> (Symbol.name p.p_name, p.p_arity) :: acc)
      db.preds acc
  in
  let own = fold db [] in
  (match db.base with None -> own | Some b -> fold b own)
  |> List.sort_uniq compare

let total_clauses db =
  let clauses db =
    Sym_index.fold
      (fun _ _ p acc ->
        acc + List.length p.front + List.length p.back_rev
        + match p.store with Some st -> Store.rows st | None -> 0)
      db.preds 0
  in
  match db.base with
  | None -> clauses db
  | Some b -> clauses db + clauses b - tombstones db

(* A predicate is statically determinate-on-first-arg when no two of its
   clauses can match the same (non-variable) first argument.  Used by the
   analysis library and by LPCO's applicability conditions.

   Two rigid first arguments are compatible exactly when they fall in
   one case of the first-argument grouping, so with two or more clauses
   the predicate is exclusive iff every clause has a case of its own. *)
let rec first_arg_exclusive db name arity =
  match find_pred db name arity with
  | None -> (
    (* an overlay that does not touch the predicate inherits the base's
       answer; one that does is conservatively non-exclusive *)
    match db.base with
    | Some b when db.removed = [] && db.dead = [] ->
      first_arg_exclusive b name arity
    | _ -> false)
  | Some _ when db.base <> None ->
    false (* session clauses may overlap the base's: stay conservative *)
  | Some p -> (
    match all_clauses db p with
    | [] | [ _ ] -> true
    | clauses ->
      let cl = Array.of_list clauses in
      p.p_arity > 0 && (group_first cl).cases = Array.length cl)
