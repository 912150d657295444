(* Clause database with first-argument indexing.

   First-argument indexing matters beyond speed: the engines create a
   choice point only when more than one clause survives indexing, so the
   index is what makes *runtime determinacy* observable — the property the
   LPCO and shallow-parallelism optimizations of the paper are driven by.

   Indexing is fully integer-keyed: predicates are found by indexing an
   array with their symbol id ({!Sym_index}) and first-argument buckets
   sit under a key whose equality and hash touch only machine integers.
   No string is compared or hashed anywhere on the lookup path — callers
   resolve names through the symbol intern table at the (cold) API
   boundary.

   Representation.  Each predicate keeps its clauses in per-key hash
   buckets plus a separate list for variable-headed (Kany) clauses, so a
   lookup touches only the clauses that survive indexing instead of
   scanning the whole predicate.  Source order is reconstructed from
   per-clause sequence numbers: [assertz] counts up, [asserta] counts
   down, and a lookup merges the (sequence-sorted) bucket and Kany lists.
   Both assert directions prepend to lists, so asserting N clauses costs
   O(N) total — the old representation appended to a plain list, making
   [assertz] of N clauses O(N²).

   The structure is mutated only at assert time; lookups are read-only, so
   a consulted program can be shared by concurrently running engine
   workers (the hardware or-parallel engine relies on this). *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol

type key =
  | Kany                      (* head first argument is a variable *)
  | Kint of int
  | Katom of Symbol.t
  | Kstruct of Symbol.t * int

(* Buckets dispatch on integers only: constructor tag, symbol id, arity.
   The polymorphic hash/equality would walk the same data, but through
   generic traversal; these monomorphic versions compile to straight-line
   integer code. *)
module Key = struct
  type t = key

  let equal a b =
    match a, b with
    | Kany, Kany -> true
    | Kint x, Kint y -> x = y
    | Katom x, Katom y -> Symbol.equal x y
    | Kstruct (x, n), Kstruct (y, m) -> Symbol.equal x y && n = m
    | (Kany | Kint _ | Katom _ | Kstruct _), _ -> false

  let hash = function
    | Kany -> 0
    | Kint n -> (n lsl 2) lor 1
    | Katom s -> (Symbol.id s lsl 2) lor 2
    | Kstruct (s, n) -> (((Symbol.id s lsl 5) lxor n) lsl 2) lor 3
end

module KeyTbl = Hashtbl.Make (Key)

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

let key_of_term t =
  match Term.deref t with
  | Term.Var _ -> Kany
  | Term.Int n -> Kint n
  | Term.Atom a -> Katom a
  | Term.Struct (f, args) -> Kstruct (f, Array.length args)

(* Key compatibility (the old per-clause filter) is structural equality
   between non-Kany keys, and always true when either side is Kany; the
   bucket map below encodes exactly that relation. *)

type entry = { seq : int; e_key : key; e_clause : Clause.t }

(* Switch-on-term dispatch tree with deep argument indexing (built by
   {!freeze}, consumed by {!lookup_code} on the compiled execution path).

   A [Dswitch] discriminates on the key found at [d_path] — a sequence of
   argument positions from the call's root, so paths longer than one look
   *inside* structure arguments, beyond the classic first-argument key.
   [d_cases] maps each rigid key to the subtree over the clauses
   compatible with it (bucket clauses plus the variable-at-path clauses,
   merged in source order); a rigid call key with no case falls back to
   [d_anys] (just the variable-at-path clauses) and a call with a
   variable at the path to [d_all] (every clause of the subtree).
   Dropping a clause therefore only ever happens on provably
   non-unifiable rigid-key disagreement. *)
type dtree =
  | Dleaf of Clause.t list
  | Dswitch of {
      d_path : int array;
      d_cases : dtree KeyTbl.t;
      d_anys : Clause.t list;
      d_all : Clause.t list;
    }

type pred = {
  p_name : Symbol.t;
  p_arity : int;
  mutable front : entry list;
    (* asserta'd clauses, ascending [seq] (all negative) *)
  mutable back_rev : entry list;
    (* assertz'd clauses, descending [seq] (newest first) *)
  mutable count : int;
  mutable next_seq : int; (* next assertz sequence number (counts up) *)
  mutable prev_seq : int; (* next asserta sequence number (counts down) *)
  buckets : entry list KeyTbl.t;
    (* non-Kany clauses by key, descending [seq] *)
  mutable anys : entry list; (* Kany clauses, descending [seq] *)
  (* Lookup caches, populated by {!freeze} and invalidated by asserts.
     [lookup] never writes them, so a frozen database stays read-only and
     can be shared across domains. *)
  mutable all_cache : Clause.t list option; (* source-order clause list *)
  mutable anys_cache : Clause.t list option;
    (* ascending Kany clauses: the result for keys with no bucket *)
  key_cache : Clause.t list KeyTbl.t; (* merged bucket + anys per key *)
  mutable dtree : dtree option;
    (* deep-indexing dispatch tree for the compiled path; built by
       {!freeze}, invalidated by asserts *)
}

type t = {
  preds : pred Sym_index.t;
    (* dense on an ordinary database, growing only at consult and
       assert (never once frozen and shared); sparse on an overlay,
       holding the session's own predicates *)
  mutable frozen : bool;
    (* caches are complete and the database is read-only; cleared by
       asserts, making a second {!freeze} O(1) *)
  freeze_lock : Mutex.t;
    (* serializes cache construction: two sessions freezing the shared
       base concurrently must not race the dispatch-tree build *)
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
  }

let clause_key clause =
  match Term.deref clause.Clause.head with
  | Term.Struct (_, args) when Array.length args > 0 -> key_of_term args.(0)
  | Term.Struct _ | Term.Atom _ -> Kany
  | Term.Int _ | Term.Var _ -> assert false

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
        count = 0;
        next_seq = 0;
        prev_seq = -1;
        buckets = KeyTbl.create 8;
        anys = [];
        all_cache = None;
        anys_cache = None;
        key_cache = KeyTbl.create 8;
        dtree = None;
      }
    in
    Sym_index.add db.preds (Symbol.id sym) arity p;
    p

(* Files an entry under its index key.  [at_front] distinguishes the
   asserta direction, whose (descending-sorted) bucket position is the
   tail — an O(bucket) insertion, acceptable because asserta is rare and
   the cost is bounded by the matching clauses, not the predicate. *)
let index_entry p entry ~at_front =
  match entry.e_key with
  | Kany ->
    if at_front then p.anys <- p.anys @ [ entry ]
    else p.anys <- entry :: p.anys
  | key ->
    let bucket = Option.value ~default:[] (KeyTbl.find_opt p.buckets key) in
    let bucket = if at_front then bucket @ [ entry ] else entry :: bucket in
    KeyTbl.replace p.buckets key bucket

let invalidate p =
  p.all_cache <- None;
  p.anys_cache <- None;
  p.dtree <- None;
  KeyTbl.reset p.key_cache

let assertz db clause =
  let sym, arity = Clause.functor_arity clause in
  let p = get_pred db sym arity in
  let entry = { seq = p.next_seq; e_key = clause_key clause; e_clause = clause } in
  p.next_seq <- p.next_seq + 1;
  p.back_rev <- entry :: p.back_rev;
  p.count <- p.count + 1;
  db.frozen <- false;
  invalidate p;
  index_entry p entry ~at_front:false

let asserta db clause =
  let sym, arity = Clause.functor_arity clause in
  let p = get_pred db sym arity in
  let entry = { seq = p.prev_seq; e_key = clause_key clause; e_clause = clause } in
  p.prev_seq <- p.prev_seq - 1;
  p.front <- entry :: p.front;
  p.count <- p.count + 1;
  db.frozen <- false;
  invalidate p;
  index_entry p entry ~at_front:true

(* All clauses in source order: the ascending front then the reversed
   back. *)
let all_entries p = p.front @ List.rev p.back_rev

let clauses_of db name arity =
  match find_pred db name arity with
  | None -> []
  | Some p -> List.map (fun e -> e.e_clause) (all_entries p)

(* Merges two descending-[seq] entry lists into one ascending clause list:
   source order, O(length of the inputs) — i.e. proportional to the
   clauses that survive indexing, never to the whole predicate. *)
let merge_desc a b =
  let rec go a b acc =
    match a, b with
    | [], [] -> acc
    | x :: xs, [] -> go xs [] (x.e_clause :: acc)
    | [], y :: ys -> go [] ys (y.e_clause :: acc)
    | x :: xs, y :: ys ->
      if x.seq > y.seq then go xs b (x.e_clause :: acc)
      else go a ys (y.e_clause :: acc)
  in
  go a b []

(* Candidate clauses for a call, filtered by first-argument indexing.
   Returns [None] when the predicate is undefined (distinct from defined
   with no matching clause). *)
let all_clauses p =
  match p.all_cache with
  | Some clauses -> clauses
  | None -> List.map (fun e -> e.e_clause) (all_entries p)

let lookup db call =
  match Term.functor_of (Term.deref call) with
  | None -> invalid_arg "Database.lookup: callable expected"
  | Some (sym, arity) ->
    (match find_pred_sym db sym arity with
     | None -> None
     | Some p ->
       if arity = 0 then Some (all_clauses p)
       else
         let call_key =
           match Term.deref call with
           | Term.Struct (_, args) -> key_of_term args.(0)
           | Term.Atom _ | Term.Int _ | Term.Var _ -> Kany
         in
         (match call_key with
          | Kany -> Some (all_clauses p)
          | key ->
            (match KeyTbl.find_opt p.key_cache key with
             | Some clauses -> Some clauses
             | None -> (
               match KeyTbl.find_opt p.buckets key with
               | None -> (
                 (* no bucket: the result is exactly the Kany clauses *)
                 match p.anys_cache with
                 | Some anys -> Some anys
                 | None -> Some (merge_desc [] p.anys))
               | Some bucket -> Some (merge_desc bucket p.anys)))))

(* ------------------------------------------------------------------ *)
(* Deep-indexing dispatch tree (compiled execution path)               *)
(* ------------------------------------------------------------------ *)

(* Bounds on tree construction: paths never look more than [max_depth]
   positions into the call, and a node tracks at most [max_paths]
   candidate paths.  Both cap build time on wide fact tables while
   leaving typical recursive predicates fully discriminated. *)
let max_depth = 3
let max_paths = 8

(* Key of a clause head at an argument path; [Kany] when a variable sits
   anywhere along it (such a clause matches any call, so it must be kept
   in every case). *)
let clause_key_at clause (path : int array) =
  let rec go t i =
    match Term.deref t with
    | Term.Var _ -> Kany
    | t' when i >= Array.length path -> key_of_term t'
    | Term.Struct (_, args) when path.(i) < Array.length args ->
      go args.(path.(i)) (i + 1)
    | _ -> Kany (* cannot descend: treat as compatible with anything *)
  in
  match Term.deref clause.Clause.head with
  | Term.Struct (_, args) when path.(0) < Array.length args ->
    go args.(path.(0)) 1
  | _ -> Kany

let entry_clauses entries = List.map (fun e -> e.e_clause) entries

(* Builds the tree over [entries] (ascending seq = source order).  A path
   is worth switching on when it has at least two distinct rigid keys and
   every case strictly shrinks (largest bucket + variable-keyed clauses
   < total); the most discriminating such path wins.  Each [Kstruct]
   case adds the positions inside that structure as new candidate paths —
   that is the deep indexing. *)
let rec build_dtree entries paths =
  match entries with
  | [] | [ _ ] -> Dleaf (entry_clauses entries)
  | _ when paths = [] -> Dleaf (entry_clauses entries)
  | _ ->
    let total = List.length entries in
    let score path =
      let tbl = KeyTbl.create 8 in
      let nanys = ref 0 in
      List.iter
        (fun e ->
          match clause_key_at e.e_clause path with
          | Kany -> incr nanys
          | k -> KeyTbl.replace tbl k (1 + Option.value ~default:0 (KeyTbl.find_opt tbl k)))
        entries;
      let distinct = KeyTbl.length tbl in
      let worst = KeyTbl.fold (fun _ n acc -> max n acc) tbl 0 in
      if distinct >= 2 && worst + !nanys < total then Some (worst + !nanys)
      else None
    in
    (* Prefer the earliest qualifying path over the best-scoring one:
       calls instantiate early (input) arguments far more often than
       late (output) ones, and a switch on a position that is unbound at
       run time degenerates to [d_all] however well it discriminates the
       clause heads.  Candidate order is leftmost-shallowest first, and
       [sub_paths] below keeps refinements of the matched position ahead
       of later arguments for the same reason. *)
    let best =
      List.find_map
        (fun path -> Option.map (fun _ -> path) (score path))
        paths
    in
    (match best with
     | None -> Dleaf (entry_clauses entries)
     | Some path ->
       let buckets = KeyTbl.create 8 in
       let anys_rev = ref [] in
       List.iter
         (fun e ->
           match clause_key_at e.e_clause path with
           | Kany -> anys_rev := e :: !anys_rev
           | k ->
             KeyTbl.replace buckets k
               (e :: Option.value ~default:[] (KeyTbl.find_opt buckets k)))
         entries;
       let anys = List.rev !anys_rev in
       let rest_paths = List.filter (fun p -> p != path) paths in
       let cases = KeyTbl.create (KeyTbl.length buckets) in
       KeyTbl.iter
         (fun k bucket_rev ->
           let bucket = List.rev bucket_rev in
           (* merge bucket and anys back into source order (both ascending) *)
           let rec merge a b =
             match (a, b) with
             | [], l | l, [] -> l
             | x :: xs, y :: ys ->
               if x.seq < y.seq then x :: merge xs b else y :: merge a ys
           in
           let sub_entries = merge bucket anys in
           let sub_paths =
             match k with
             | Kstruct (_, arity) when Array.length path < max_depth ->
               let ext =
                 List.init arity (fun j -> Array.append path [| j |])
               in
               let paths' = ext @ rest_paths in
               if List.length paths' > max_paths then
                 List.filteri (fun i _ -> i < max_paths) paths'
               else paths'
             | _ -> rest_paths
           in
           KeyTbl.replace cases k (build_dtree sub_entries sub_paths))
         buckets;
       Dswitch
         {
           d_path = path;
           d_cases = cases;
           d_anys = entry_clauses anys;
           d_all = entry_clauses entries;
         })

let build_pred_dtree p =
  if p.p_arity = 0 then Dleaf (all_clauses p)
  else
    build_dtree (all_entries p)
      (List.init p.p_arity (fun i -> [| i |]))

(* Key of a call at a path; [None] when a variable is met along it (the
   call could take any branch). *)
let call_key_at call (path : int array) =
  let rec go t i =
    match Term.deref t with
    | Term.Var _ -> None
    | t' when i >= Array.length path -> Some (key_of_term t')
    | Term.Struct (_, args) when path.(i) < Array.length args ->
      go args.(path.(i)) (i + 1)
    | _ -> None (* cannot descend; be conservative *)
  in
  match Term.deref call with
  | Term.Struct (_, args) when path.(0) < Array.length args ->
    go args.(path.(0)) 1
  | _ -> None

let rec walk_dtree tree call =
  match tree with
  | Dleaf clauses -> clauses
  | Dswitch { d_path; d_cases; d_anys; d_all } -> (
    match call_key_at call d_path with
    | None | Some Kany -> d_all
    | Some key -> (
      match KeyTbl.find_opt d_cases key with
      | Some sub -> walk_dtree sub call
      | None -> d_anys))

(* Candidate clauses via the dispatch tree — the compiled path's
   {!lookup}.  Falls back to first-argument indexing when the database
   has not been frozen (never mutates, so a frozen database stays
   shareable across domains). *)
let lookup_code db call =
  match Term.functor_of (Term.deref call) with
  | None -> invalid_arg "Database.lookup_code: callable expected"
  | Some (sym, arity) -> (
    match find_pred_sym db sym arity with
    | None -> None
    | Some p -> (
      match p.dtree with
      | Some tree -> Some (walk_dtree tree (Term.deref call))
      | None -> lookup db call))

(* ------------------------------------------------------------------ *)
(* Register-rooted lookups                                             *)
(* ------------------------------------------------------------------ *)

(* The compiled body path calls with the goal's arguments spread in a
   register file instead of packed in a [Term.Struct]: these variants
   root the key computations at the register array.  [args] may be
   longer than [arity] (a shared register buffer) — only the first
   [arity] cells are the call. *)

let call_key_at_args arity (args : Term.t array) (path : int array) =
  let rec go t i =
    match Term.deref t with
    | Term.Var _ -> None
    | t' when i >= Array.length path -> Some (key_of_term t')
    | Term.Struct (_, cells) when path.(i) < Array.length cells ->
      go cells.(path.(i)) (i + 1)
    | _ -> None (* cannot descend; be conservative *)
  in
  if path.(0) < arity then go args.(path.(0)) 1 else None

let rec walk_dtree_args tree arity args =
  match tree with
  | Dleaf clauses -> clauses
  | Dswitch { d_path; d_cases; d_anys; d_all } -> (
    match call_key_at_args arity args d_path with
    | None | Some Kany -> d_all
    | Some key -> (
      match KeyTbl.find_opt d_cases key with
      | Some sub -> walk_dtree_args sub arity args
      | None -> d_anys))

(* {!lookup} rooted at a register file. *)
let lookup_args db sym arity (args : Term.t array) =
  match find_pred_sym db sym arity with
  | None -> None
  | Some p ->
    if arity = 0 then Some (all_clauses p)
    else (
      match key_of_term args.(0) with
      | Kany -> Some (all_clauses p)
      | key ->
        (match KeyTbl.find_opt p.key_cache key with
         | Some clauses -> Some clauses
         | None -> (
           match KeyTbl.find_opt p.buckets key with
           | None -> (
             match p.anys_cache with
             | Some anys -> Some anys
             | None -> Some (merge_desc [] p.anys))
           | Some bucket -> Some (merge_desc bucket p.anys))))

(* {!lookup_code} rooted at a register file. *)
let lookup_code_args db sym arity (args : Term.t array) =
  match find_pred_sym db sym arity with
  | None -> None
  | Some p -> (
    match p.dtree with
    | Some tree -> Some (walk_dtree_args tree arity args)
    | None -> lookup_args db sym arity args)

(* Precomputes every lookup result reachable from the current clause set,
   so subsequent lookups are pure reads — safe to share across domains
   (the next assert invalidates, so freeze again after updates).  Also
   builds the dispatch trees and precompiles every clause to instruction
   code, so parallel workers on the compiled path never write.

   Idempotent: O(1) on an already-frozen database, so per-query freezing
   (as the engine front end does) costs nothing after the first. *)
let freeze_preds db =
  Sym_index.fold
    (fun _ _ p () ->
      p.all_cache <- Some (List.map (fun e -> e.e_clause) (all_entries p));
      p.anys_cache <- Some (merge_desc [] p.anys);
      KeyTbl.reset p.key_cache;
      KeyTbl.iter
        (fun key bucket ->
          KeyTbl.replace p.key_cache key (merge_desc bucket p.anys))
        p.buckets;
      p.dtree <- Some (build_pred_dtree p);
      List.iter
        (fun e -> ignore (Code.of_clause e.e_clause))
        (all_entries p))
    db.preds ()

let rec freeze db =
  (match db.base with Some b -> freeze b | None -> ());
  (* Double-checked under the lock, and the flag is set only AFTER the
     caches are built: a concurrent freezer that loses the race blocks on
     the mutex until the build is done, and one that reads [frozen =
     true] without the lock can only do so once the caches are complete.
     (The unlocked fast path makes the per-query re-freeze of an
     already-frozen database one load, as before.) *)
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
    frozen = true; (* nothing to cache yet *)
    freeze_lock = Mutex.create ();
    tabled = b.tabled; (* shared: sessions never declare tables *)
    has_tabled = b.has_tabled;
    base = Some b;
    removed = [];
  }

let base db = db.base

(* The overlay's own entries surviving first-argument indexing for
   [key], ascending seq.  Overlays are small and mutate often, so this
   reads the buckets directly instead of the freeze caches. *)
let overlay_entries p key =
  match key with
  | Kany -> all_entries p
  | key ->
    let bucket = Option.value ~default:[] (KeyTbl.find_opt p.buckets key) in
    let rec go a b acc =
      match a, b with
      | [], [] -> acc
      | x :: xs, [] -> go xs [] (x :: acc)
      | [], y :: ys -> go [] ys (y :: acc)
      | x :: xs, y :: ys ->
        if x.seq > y.seq then go xs b (x :: acc) else go a ys (y :: acc)
    in
    go bucket p.anys []

(* The session view of one (keyed) lookup, in overlay source order:
   asserta'd session clauses (negative seq), then the base's (cached,
   indexed) answer with this session's tombstones filtered out, then
   assertz'd session clauses.  [None] exactly when neither side defines
   the predicate.  When the session has no tombstones and no clause of
   the predicate, this is the base's list itself, not a copy. *)
let overlay_view db p_opt key base_part =
  let bs =
    match base_part, db.removed with
    | None, _ -> []
    | Some bs, [] -> bs
    | Some bs, removed -> List.filter (fun c -> not (List.memq c removed)) bs
  in
  match p_opt, base_part with
  | None, None -> None
  | Some p, _ when p.count > 0 ->
    let front, back =
      List.partition (fun e -> e.seq < 0) (overlay_entries p key)
    in
    Some (entry_clauses front @ bs @ entry_clauses back)
  | _ -> Some bs

(* Deletes [c] from the session's own clauses, if it is one: a clause
   the session asserted and now retracts leaves the overlay, instead of
   staying behind as a tombstone that every later lookup filters out.
   [false] when [c] is a base clause. *)
let remove_own db c =
  let sym, arity = Clause.functor_arity c in
  match find_pred_sym db sym arity with
  | None -> false
  | Some p -> (
    match List.find_opt (fun e -> e.e_clause == c) (all_entries p) with
    | None -> false
    | Some e ->
      let drop = List.filter (fun e' -> e' != e) in
      if e.seq < 0 then p.front <- drop p.front
      else p.back_rev <- drop p.back_rev;
      (match e.e_key with
       | Kany -> p.anys <- drop p.anys
       | key -> (
         match drop (KeyTbl.find p.buckets key) with
         | [] -> KeyTbl.remove p.buckets key
         | bucket -> KeyTbl.replace p.buckets key bucket));
      p.count <- p.count - 1;
      db.frozen <- false;
      invalidate p;
      true)

(* Overlay-aware public lookups, shadowing the direct versions above.
   A database without a base pays exactly one extra load and branch;
   an overlay merges its (bucket-indexed) delta around the base's
   answer, never touching the base's caches.  The compiled-path
   variants run the base through its dispatch tree and filter the
   overlay part by first-argument key only — both filters drop only
   provably non-unifiable clauses, so the combination is still sound. *)

let overlay_call_key call arity =
  if arity = 0 then Kany
  else
    match Term.deref call with
    | Term.Struct (_, args) -> key_of_term args.(0)
    | Term.Atom _ | Term.Int _ | Term.Var _ -> Kany

let direct_lookup = lookup
let direct_lookup_code = lookup_code
let direct_lookup_args = lookup_args
let direct_lookup_code_args = lookup_code_args

let overlay_lookup db b ~base_part call =
  match Term.functor_of (Term.deref call) with
  | None -> invalid_arg "Database.lookup: callable expected"
  | Some (sym, arity) ->
    let key = overlay_call_key call arity in
    overlay_view db (find_pred_sym db sym arity) key (base_part b call)

let lookup db call =
  match db.base with
  | None -> direct_lookup db call
  | Some b -> overlay_lookup db b ~base_part:direct_lookup call

let lookup_code db call =
  match db.base with
  | None -> direct_lookup_code db call
  | Some b -> overlay_lookup db b ~base_part:direct_lookup_code call

let lookup_args db sym arity (args : Term.t array) =
  match db.base with
  | None -> direct_lookup_args db sym arity args
  | Some b ->
    let key = if arity = 0 then Kany else key_of_term args.(0) in
    overlay_view db
      (find_pred_sym db sym arity)
      key
      (direct_lookup_args b sym arity args)

let lookup_code_args db sym arity (args : Term.t array) =
  match db.base with
  | None -> direct_lookup_code_args db sym arity args
  | Some b ->
    let key = if arity = 0 then Kany else key_of_term args.(0) in
    overlay_view db
      (find_pred_sym db sym arity)
      key
      (direct_lookup_code_args b sym arity args)

(* Retracts the first clause of the session view whose [H :- B] term
   unifies with [pattern]'s.  The candidates are the session view's
   first-argument lookup on the pattern's head, so only clauses that can
   match are unified.  A clause the session asserted leaves its overlay;
   a base clause is tombstoned (by physical identity), as the base is
   never written.  Returns [false] when nothing matched. *)
let retract db pattern =
  if db.base = None then
    invalid_arg "Database.retract: session overlay expected";
  let pat = Clause.to_term (Clause.rename pattern) in
  match
    List.find_opt
      (fun c -> Ace_term.Unify.matches (Clause.to_term c) pat)
      (Option.value ~default:[] (lookup db pattern.Clause.head))
  with
  | None -> false
  | Some c ->
    if not (remove_own db c) then db.removed <- c :: db.removed;
    true

(* Overlay-aware introspection (cold paths). *)

let mem db name arity =
  find_pred db name arity <> None
  || match db.base with None -> false | Some b -> find_pred b name arity <> None

let clauses_of db name arity =
  match db.base with
  | None -> clauses_of db name arity
  | Some b ->
    let keep =
      match db.removed with
      | [] -> fun _ -> true
      | removed -> fun c -> not (List.memq c removed)
    in
    let split =
      match find_pred db name arity with
      | None -> ([], [])
      | Some p ->
        let f, bk = List.partition (fun e -> e.seq < 0) (all_entries p) in
        ( List.map (fun e -> e.e_clause) f,
          List.map (fun e -> e.e_clause) bk )
    in
    let front, back = split in
    List.filter keep (front @ clauses_of b name arity @ back)

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
  match Term.functor_of (Term.deref goal) with
  | Some (sym, arity) -> is_tabled db sym arity
  | None -> false

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
  let clauses db = Sym_index.fold (fun _ _ p acc -> acc + p.count) db.preds 0 in
  match db.base with
  | None -> clauses db
  | Some b -> clauses db + clauses b - List.length db.removed

let tombstones db = List.length db.removed

(* A predicate is statically determinate-on-first-arg when no two of its
   clauses can match the same (non-variable) first argument.  Used by the
   analysis library and by LPCO's applicability conditions.

   Two non-Kany keys are compatible exactly when they are equal, i.e. when
   they share a bucket — so with two or more clauses the predicate is
   exclusive iff no clause is variable-headed and every bucket is a
   singleton. *)
let rec first_arg_exclusive db name arity =
  match find_pred db name arity with
  | None -> (
    (* an overlay that does not touch the predicate inherits the base's
       answer; one that does is conservatively non-exclusive *)
    match db.base with
    | Some b when db.removed = [] -> first_arg_exclusive b name arity
    | _ -> false)
  | Some _ when db.base <> None ->
    false (* session clauses may overlap the base's: stay conservative *)
  | Some p ->
    p.count <= 1
    || (p.anys = []
        && KeyTbl.fold
             (fun _ bucket ok ->
               ok && match bucket with [ _ ] -> true | _ -> false)
             p.buckets true)
