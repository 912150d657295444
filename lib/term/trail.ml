(* The trail records variables bound since a given point so that
   backtracking can restore the state.  Stored as a growable stack. *)

type t = { mutable entries : Term.var array; mutable size : int }

let dummy_var : Term.var = { Term.vid = -1; binding = None }

let create () = { entries = Array.make 64 dummy_var; size = 0 }

let mark t = t.size

let size t = t.size

let[@inline never] grow t =
  let entries = Array.make (2 * Array.length t.entries) dummy_var in
  Array.blit t.entries 0 entries 0 t.size;
  t.entries <- entries

let push t v =
  if t.size = Array.length t.entries then grow t;
  t.entries.(t.size) <- v;
  t.size <- t.size + 1

(* Unbinds every variable trailed after [mark]; returns how many were
   undone (the cost of the untrailing). *)
let undo_to t mark =
  assert (mark >= 0 && mark <= t.size);
  let undone = t.size - mark in
  for i = t.size - 1 downto mark do
    t.entries.(i).Term.binding <- None;
    t.entries.(i) <- dummy_var
  done;
  t.size <- mark;
  undone

(* The variables trailed in the half-open segment [lo, hi).  Used by the
   and-engine to undo a deterministic subgoal's bindings without markers
   (shallow-parallelism optimization). *)
let segment t ~lo ~hi =
  assert (0 <= lo && lo <= hi && hi <= t.size);
  Array.sub t.entries lo (hi - lo)

(* Undoes an out-of-order trail segment captured with [segment]. *)
let undo_segment seg =
  Array.iter (fun (v : Term.var) -> v.Term.binding <- None) seg;
  Array.length seg
