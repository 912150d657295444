(* The shared answer table for SLG tabling (see table.mli).

   Concurrency contract.  All structural mutation — subgoal-trie
   insertion, answer-trie insertion — happens under the owning shard's
   mutex when the table is [locked]; the simulated engines pass
   [locked:false] and skip the mutexes (their "workers" are coroutines
   of one thread, so every table operation is atomic with respect to
   the simulation already).  Reads need no lock in either mode: stored
   terms are resolved copies that are never mutated, [answers_rev] is a
   single-word pointer to an immutable spine (a racing reader sees some
   monotone prefix state), and [complete] is an Atomic whose
   false→true transition is the only change. *)

module Term = Ace_term.Term

type entry = {
  id : int;
  subgoal : Term.t;
  mutable answers_rev : Term.t list;
  answer_trie : unit Trie.t;
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

let with_shard t shard f =
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
            answers_rev = [];
            answer_trie = Trie.create ();
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

type inserted =
  | Inserted
  | Duplicate
  | Overflow

let insert t entry answer =
  let toks = Trie.tokens answer in
  let shard = shard_of t (Trie.tokens entry.subgoal) in
  with_shard t shard (fun () ->
      if Trie.find entry.answer_trie toks <> None then Duplicate
      else begin
        let n = Trie.cardinal entry.answer_trie in
        if t.t_max_answers > 0 && n >= t.t_max_answers then Overflow
        else if
          (* seeded CI mutation: silently lose the k-th distinct answer *)
          match !mutation with Some k -> n = k | None -> false
        then Duplicate
        else begin
          ignore (Trie.insert_new entry.answer_trie toks () : bool);
          entry.answers_rev <- answer :: entry.answers_rev;
          Inserted
        end
      end)

let answers entry = List.rev entry.answers_rev

let answer_count entry = List.length entry.answers_rev

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
