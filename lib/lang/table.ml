(* The shared answer table for SLG tabling (see table.mli).

   Concurrency contract.  All structural mutation — subgoal-trie
   insertion, answer appends and the duplicate index — happens under
   the owning shard's mutex when the table is [locked]; the simulated
   engines pass [locked:false] and skip the mutexes (their "workers" are
   coroutines of one thread, so every table operation is atomic with
   respect to the simulation already).  Reads need no lock in either
   mode: stored terms are resolved copies that are never mutated, an
   answer slot is written before the count that covers it is published,
   a grown answer array is published before any count past the old
   capacity, and [complete] is an Atomic whose false→true transition is
   the only change. *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol

type entry = {
  id : int;
  subgoal : Term.t;
  lock : Mutex.t;
  store : Term.t array Atomic.t;
  count : int Atomic.t;
  mutable hashes : int array;
  mutable index : int array;
  complete : bool Atomic.t;
  mutable answer_clauses : Clause.t list option;
}

type shard = { lock : Mutex.t; subgoals : entry Trie.t }

let shards = 16

type t = {
  locked : bool;
  mutable shard_arr : shard array;
    (* a locked table builds its shards up front, before any worker can
       race; an unlocked one (one thread) at its first tabled call, so a
       run that calls no tabled predicate pays nothing for them *)
  next_id : int Atomic.t;
  t_max_answers : int;
  log_lock : Mutex.t;
  mutable log_rev : string list;
}

let mutation : int option ref = ref None

(* An unlocked table's mutexes: shared by all of them and never taken. *)
let never_locked = Mutex.create ()

let new_lock locked = if locked then Mutex.create () else never_locked

let make_shards locked =
  Array.init shards (fun _ ->
      { lock = new_lock locked; subgoals = Trie.create () })

let create ?(locked = false) ?(max_answers = 0) () =
  {
    locked;
    shard_arr = (if locked then make_shards locked else [||]);
    next_id = Atomic.make 0;
    t_max_answers = max_answers;
    log_lock = new_lock locked;
    log_rev = [];
  }

let max_answers t = t.t_max_answers

let with_shard t (shard : shard) f =
  if t.locked then begin
    Mutex.lock shard.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock shard.lock) f
  end
  else f ()

let shard_of t toks =
  if Array.length t.shard_arr = 0 then t.shard_arr <- make_shards t.locked;
  t.shard_arr.(Trie.hash toks land (shards - 1))

let subgoal_entry t call =
  let toks = Trie.tokens call in
  let shard = shard_of t toks in
  with_shard t shard (fun () ->
      match Trie.find shard.subgoals toks with
      | Some e -> (e, false)
      | None ->
        let e =
          {
            id = Atomic.fetch_and_add t.next_id 1;
            subgoal = Term.copy_resolved call;
            lock = shard.lock;
            store = Atomic.make [||];
            count = Atomic.make 0;
            hashes = [||];
            index = [||];
            complete = Atomic.make false;
            answer_clauses = None;
          }
        in
        Trie.add shard.subgoals toks e;
        (e, true))

let find_entry t call =
  let toks = Trie.tokens call in
  let shard = shard_of t toks in
  with_shard t shard (fun () -> Trie.find shard.subgoals toks)

(* ------------------------------------------------------------------ *)
(* Duplicate detection                                                 *)
(* ------------------------------------------------------------------ *)

(* A hash that variants share: every variable hashes alike. *)
let rec variant_hash h t =
  match Term.deref t with
  | Term.Atom s -> (h * 31) + Symbol.id s
  | Term.Int n -> (h * 31) + (n * 5) + 1
  | Term.Var _ -> (h * 31) + 2
  | Term.Struct (f, args) ->
    Array.fold_left variant_hash ((h * 31) + Symbol.id f + Array.length args) args

exception Not_variant

(* [variant pairs a b] extends the variable bijection [pairs] so that the
   live term [a] (read through its bindings) and the stored answer [b]
   are equal up to renaming, or raises [Not_variant].  Ground terms never
   allocate. *)
let rec variant pairs a b =
  match Term.deref a, Term.deref b with
  | Term.Atom x, Term.Atom y when Symbol.equal x y -> pairs
  | Term.Int x, Term.Int y when x = y -> pairs
  | Term.Struct (f, xs), Term.Struct (g, ys)
    when Symbol.equal f g && Array.length xs = Array.length ys ->
    variant_args pairs xs ys 0
  | Term.Var v, Term.Var w -> (
    match List.assq_opt v pairs with
    | Some w' -> if w' == w then pairs else raise Not_variant
    | None ->
      if List.exists (fun (_, w') -> w' == w) pairs then raise Not_variant;
      (v, w) :: pairs)
  | _ -> raise Not_variant

and variant_args pairs xs ys i =
  if i = Array.length xs then pairs
  else variant_args (variant pairs xs.(i) ys.(i)) xs ys (i + 1)

let is_variant a b =
  match variant [] a b with _ -> true | exception Not_variant -> false

(* The entry's duplicate index is open addressing over answer numbers
   (slot holds number + 1, 0 is free), kept at most half full.  [probe]
   answers the slot holding a variant of [answer] ([>= 0]) or, encoded
   as [-(slot + 1)], the free slot where it belongs. *)
let rec probe_from entry store mask h answer slot =
  let k = entry.index.(slot) in
  if k = 0 then -(slot + 1)
  else if entry.hashes.(k - 1) = h && is_variant answer store.(k - 1) then slot
  else probe_from entry store mask h answer ((slot + 1) land mask)

let probe entry h answer =
  let mask = Array.length entry.index - 1 in
  probe_from entry (Atomic.get entry.store) mask h answer (h land mask)

let rec free_slot index mask slot =
  if index.(slot) = 0 then slot else free_slot index mask ((slot + 1) land mask)

let rebuild_index entry size =
  let index = Array.make size 0 in
  let mask = size - 1 in
  for i = 0 to Atomic.get entry.count - 1 do
    index.(free_slot index mask (entry.hashes.(i) land mask)) <- i + 1
  done;
  entry.index <- index

(* Appends answer [n] (the current count).  The slot is written, and a
   grown array published, before the count that covers it. *)
let append entry n answer h =
  let store = Atomic.get entry.store in
  let store =
    if n < Array.length store then store
    else begin
      let bigger = Array.make (Int.max 8 (2 * n)) answer in
      Array.blit store 0 bigger 0 n;
      Atomic.set entry.store bigger;
      let hashes = Array.make (Array.length bigger) 0 in
      Array.blit entry.hashes 0 hashes 0 n;
      entry.hashes <- hashes;
      bigger
    end
  in
  store.(n) <- answer;
  entry.hashes.(n) <- h;
  Atomic.set entry.count (n + 1)

type inserted =
  | Inserted
  | Duplicate
  | Overflow

let insert_unlocked t entry answer h =
  if Array.length entry.index = 0 then rebuild_index entry 16;
  let slot = probe entry h answer in
  if slot >= 0 then Duplicate
  else begin
    let n = Atomic.get entry.count in
    if t.t_max_answers > 0 && n >= t.t_max_answers then Overflow
    else if
      (* seeded CI mutation: silently lose the k-th distinct answer *)
      match !mutation with Some k -> n = k | None -> false
    then Duplicate
    else begin
      append entry n (Term.copy_resolved answer) h;
      entry.index.(-slot - 1) <- n + 1;
      if 2 * (n + 1) > Array.length entry.index then
        rebuild_index entry (2 * Array.length entry.index);
      Inserted
    end
  end

let insert t (entry : entry) answer =
  let h = variant_hash 17 answer in
  if t.locked then begin
    Mutex.lock entry.lock;
    match insert_unlocked t entry answer h with
    | r ->
      Mutex.unlock entry.lock;
      r
    | exception e ->
      Mutex.unlock entry.lock;
      raise e
  end
  else insert_unlocked t entry answer h

let answer_count entry = Atomic.get entry.count

let answer entry i = (Atomic.get entry.store).(i)

let is_complete entry = Atomic.get entry.complete

let set_complete t entry =
  if Atomic.compare_and_set entry.complete false true then begin
    let line = Ace_term.Pp.to_canonical_string entry.subgoal in
    if t.locked then Mutex.lock t.log_lock;
    t.log_rev <- line :: t.log_rev;
    if t.locked then Mutex.unlock t.log_lock
  end

let completion_log t = List.rev t.log_rev

let entries t =
  let all = ref [] in
  Array.iter
    (fun shard -> Trie.iter (fun e -> all := e :: !all) shard.subgoals)
    t.shard_arr;
  List.sort (fun a b -> compare a.id b.id) !all

let subgoal_count t = Atomic.get t.next_id
