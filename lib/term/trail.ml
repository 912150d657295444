(* The trail records variables bound since a given point so that
   backtracking can restore the state.  Stored as a growable stack.

   Conditional trailing, the WAM's HB register: [hb] is a creation stamp
   ({!Term.stamp}), and [push] records a variable only if it is no
   younger ([vid <= hb]).  A machine that keeps [hb] at the stamp of its
   newest choice point skips the bindings of variables created since:
   backtracking to that choice point leaves them unreachable, so their
   bindings need no undoing.  A new trail has [hb = max_int] and records
   every binding. *)

type t = {
  mutable entries : Term.var array;
  mutable size : int;
  mutable hb : int;
}

let dummy_var : Term.var = { Term.vid = -1; binding = None }

let create () = { entries = Array.make 64 dummy_var; size = 0; hb = max_int }

let mark t = t.size

let size t = t.size

let hb t = t.hb

let set_hb t hb = t.hb <- hb

let raise_hb t =
  let hb = t.hb and now = Term.stamp () in
  if now > hb then t.hb <- now;
  hb

let[@inline never] grow t =
  let entries = Array.make (2 * Array.length t.entries) dummy_var in
  Array.blit t.entries 0 entries 0 t.size;
  t.entries <- entries

let push t (v : Term.var) =
  if v.Term.vid <= t.hb then begin
    if t.size = Array.length t.entries then grow t;
    t.entries.(t.size) <- v;
    t.size <- t.size + 1
  end

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
