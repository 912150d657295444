(* Column stores: a predicate of facts kept as data.

   {!Database.freeze} turns each base predicate whose clauses are all
   facts with atomic arguments (atoms and integers) into a store: one
   [Term.t] array per argument, rows in source order.  Each cell is one
   of the database's shared constants (one block per distinct atom or
   integer), so a row costs a word per argument, and a row try binds a
   call's variable to the cell itself, building no term.

   Argument indexes are built on demand, as in YAP's demand-driven
   indexing (Santos Costa, Sagonas and Lopes, ICLP 2007): the first
   call that binds an argument builds that argument's index.  This is
   the procrastination schema applied to indexing: nothing is built for
   an argument no call binds.  The build runs under the database's
   freeze lock and publishes the index through an [Atomic], so Par_or
   domains and ace_serve threads read indexes without locking.  An
   index maps each key (a {!Case} key, probed with {!Case.slot}) to its
   rows in source order: [order] holds the row ids grouped by key, and
   [spans] each key's group. *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol
module Unify = Ace_term.Unify

type index = {
  keys : int array;   (* case table: slot [i]'s tag and value at [2i], [2i+1] *)
  spans : int array;  (* slot [i]'s group: [order] positions [2i] .. [2i+1] - 1 *)
  order : int array;  (* row ids grouped by key, source order within a key *)
}

(* Not built yet (compared with [==]). *)
let no_index = { keys = [||]; spans = [||]; order = [||] }

type t = {
  name : Symbol.t;
  arity : int;
  rows : int;
  cols : Term.t array array;  (* [cols.(j).(r)]: argument [j] of row [r] *)
  indexes : index Atomic.t array;  (* one per argument, [no_index] until built *)
  lock : Mutex.t;  (* the database's freeze lock: serializes index builds *)
  mutable builds : int;  (* indexes built so far (written under [lock]) *)
}

let create ~lock name ~rows cols =
  {
    name;
    arity = Array.length cols;
    rows;
    cols;
    indexes = Array.init (Array.length cols) (fun _ -> Atomic.make no_index);
    lock;
    builds = 0;
  }

let name st = st.name
let arity st = st.arity
let rows st = st.rows
let builds st = st.builds
let indexed st j = Atomic.get st.indexes.(j) != no_index

let row_term st r =
  if st.arity = 0 then Term.Atom st.name
  else Term.Struct (st.name, Array.init st.arity (fun j -> st.cols.(j).(r)))

(* ------------------------------------------------------------------ *)
(* Building an index                                                   *)
(* ------------------------------------------------------------------ *)

(* One column's index: the keys in first-occurrence order (a provisional
   table sized by rows finds them), a stable counting sort of the row
   ids by key, and the final table sized by keys. *)
let build (col : Term.t array) =
  let n = Array.length col in
  let cap0 = Case.slot_count n in
  let seen = Array.make (2 * cap0) 0 and case_at = Array.make cap0 0 in
  let which = Array.make n 0 and counts = Array.make n 0 in
  let cases = ref 0 in
  Array.iteri
    (fun r t ->
      let tag = Case.case_tag t and v = Case.case_value t in
      let s = Case.slot seen tag v in
      if seen.(2 * s) = 0 then begin
        seen.(2 * s) <- tag;
        seen.((2 * s) + 1) <- v;
        case_at.(s) <- !cases;
        incr cases
      end;
      let k = case_at.(s) in
      which.(r) <- k;
      counts.(k) <- counts.(k) + 1)
    col;
  let cases = !cases in
  let starts = Array.make (cases + 1) 0 in
  for k = 0 to cases - 1 do
    starts.(k + 1) <- starts.(k) + counts.(k)
  done;
  let next = Array.sub starts 0 cases and order = Array.make n 0 in
  for r = 0 to n - 1 do
    let k = which.(r) in
    order.(next.(k)) <- r;
    next.(k) <- next.(k) + 1
  done;
  let cap = Case.slot_count cases in
  let keys = Array.make (2 * cap) 0 and spans = Array.make (2 * cap) 0 in
  for s0 = 0 to cap0 - 1 do
    let tag = seen.(2 * s0) in
    if tag <> 0 then begin
      let v = seen.((2 * s0) + 1) and k = case_at.(s0) in
      let s = Case.slot keys tag v in
      keys.(2 * s) <- tag;
      keys.((2 * s) + 1) <- v;
      spans.(2 * s) <- starts.(k);
      spans.((2 * s) + 1) <- starts.(k + 1)
    end
  done;
  { keys; spans; order }

(* Argument [j]'s index, built now if no call has built it yet: double
   checked under the lock, published only once complete. *)
let[@inline never] index st j =
  Mutex.protect st.lock (fun () ->
      let idx = Atomic.get st.indexes.(j) in
      if idx != no_index then idx
      else begin
        let idx = build st.cols.(j) in
        Atomic.set st.indexes.(j) idx;
        st.builds <- st.builds + 1;
        idx
      end)

(* ------------------------------------------------------------------ *)
(* Selecting rows                                                      *)
(* ------------------------------------------------------------------ *)

(* The identity row order: position [p] is row [p] (compared with
   [==]). *)
let all_rows : int array = Array.make 1 (-1)

type sel = { mutable order : int array; mutable lo : int; mutable hi : int }

let sel () = { order = all_rows; lo = 0; hi = 0 }

let row_at (order : int array) pos = if order == all_rows then pos else order.(pos)

let nothing sel =
  sel.order <- all_rows;
  sel.lo <- 0;
  sel.hi <- 0

(* Seeded mutation hook for the CI store-smoke test, mirroring
   [Code.mutation]: when set to [Some k], every index probe drops one
   matching row (position [k mod n] of its [n]).  The compiled engines
   then lose answers that the interpreted reference, which reads the
   clause view, still finds.  Never set outside tests. *)
let mutation : int option ref = ref None

let[@inline never] mutate k sel =
  let n = sel.hi - sel.lo in
  if n > 0 then begin
    let skip = k mod n in
    let order =
      Array.init (n - 1) (fun i ->
          row_at sel.order (sel.lo + if i < skip then i else i + 1))
    in
    sel.order <- order;
    sel.lo <- 0;
    sel.hi <- n - 1
  end

(* [sel] gets [idx]'s group for the atomic [a] (nothing when no row
   holds it), unless it already holds a group no larger. *)
let probe idx a sel ~found =
  let s = Case.slot idx.keys (Case.case_tag a) (Case.case_value a) in
  if idx.keys.(2 * s) = 0 then false
  else begin
    let lo = idx.spans.(2 * s) and hi = idx.spans.((2 * s) + 1) in
    if (not found) || hi - lo < sel.hi - sel.lo then begin
      sel.order <- idx.order;
      sel.lo <- lo;
      sel.hi <- hi
    end;
    true
  end

(* Arguments [j ..] of the call, [found] when [sel] holds a bound
   argument's group.  Each bound argument's index is probed, built
   first if no call has needed it yet, and the smallest group wins. *)
let rec select_from st (args : Term.t array) sel j found =
  if j = st.arity then begin
    if found then
      match !mutation with None -> () | Some k -> mutate k sel
    else begin
      sel.order <- all_rows;
      sel.lo <- 0;
      sel.hi <- st.rows
    end
  end
  else
    match Term.deref args.(j) with
    | Term.Var _ -> select_from st args sel (j + 1) found
    | Term.Struct _ -> nothing sel (* no cell is a structure *)
    | (Term.Atom _ | Term.Int _) as a ->
      let idx = Atomic.get st.indexes.(j) in
      let idx = if idx == no_index then index st j else idx in
      if probe idx a sel ~found then select_from st args sel (j + 1) true
      else nothing sel

let select st (args : Term.t array) sel = select_from st args sel 0 false

(* ------------------------------------------------------------------ *)
(* Trying a row                                                        *)
(* ------------------------------------------------------------------ *)

(* Arguments [j ..] of row [r] against the call's: an unbound argument
   is bound to the cell (trailed), a bound one must be the same atom or
   integer.  Positive: the arguments read, all matched; negative: minus
   the arguments read, the last one mismatched. *)
let rec unify_from (cols : Term.t array array) r (args : Term.t array) trail j
    n =
  if j = n then n
  else
    let cell = cols.(j).(r) in
    match Term.deref args.(j) with
    | Term.Var v ->
      Unify.bind trail v cell;
      unify_from cols r args trail (j + 1) n
    | Term.Atom s -> (
      match cell with
      | Term.Atom s' when Symbol.equal s s' ->
        unify_from cols r args trail (j + 1) n
      | _ -> -(j + 1))
    | Term.Int k -> (
      match cell with
      | Term.Int k' when k = k' -> unify_from cols r args trail (j + 1) n
      | _ -> -(j + 1))
    | Term.Struct _ -> -(j + 1)

let unify_row st r (args : Term.t array) trail =
  unify_from st.cols r args trail 0 st.arity
