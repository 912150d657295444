(* Unification with trailing.  [steps] counts visited term pairs so engines
   can charge a proportional cost. *)

let bind trail (v : Term.var) t =
  v.Term.binding <- Some t;
  Trail.push trail v

let rec occurs (v : Term.var) t =
  match Term.deref t with
  | Term.Var w -> w.Term.vid = v.Term.vid
  | Term.Atom _ | Term.Int _ -> false
  | Term.Struct (_, args) -> Array.exists (occurs v) args

(* [unify_pair] threads the visited-pair count as a local int instead of
   bumping the shared [steps] ref once per pair: the count comes back
   positive on success and negative on failure (it is incremented before
   any return, so zero is unreachable), and [steps] is touched exactly
   once per unification.  Top-level rather than a closure inside [unify],
   so a unification allocates nothing beyond its bindings. *)
let rec unify_pair occurs_check trail n a b =
  let n = n + 1 in
  let a = Term.deref a and b = Term.deref b in
  match a, b with
  | Term.Var x, Term.Var y ->
    if x.Term.vid = y.Term.vid then n
    else begin
      (* Bind the younger variable to the older one: keeps bindings
         pointing "downward" which shortens dereference chains. *)
      if x.Term.vid > y.Term.vid then bind trail x b else bind trail y a;
      n
    end
  | Term.Var x, t | t, Term.Var x ->
    if occurs_check && occurs x t then -n
    else begin
      bind trail x t;
      n
    end
  | Term.Atom x, Term.Atom y -> if Symbol.equal x y then n else -n
  | Term.Int x, Term.Int y -> if x = y then n else -n
  | Term.Struct (f, xs), Term.Struct (g, ys) ->
    if Symbol.equal f g && Array.length xs = Array.length ys then
      unify_args occurs_check trail xs ys n 0
    else -n
  | (Term.Atom _ | Term.Int _ | Term.Struct _), _ -> -n

and unify_args occurs_check trail xs ys n i =
  if i >= Array.length xs then n
  else
    let r = unify_pair occurs_check trail n xs.(i) ys.(i) in
    if r < 0 then r else unify_args occurs_check trail xs ys r (i + 1)

let unify ?(occurs_check = false) ~trail ~steps a b =
  let r = unify_pair occurs_check trail 0 a b in
  steps := !steps + abs r;
  r > 0

(* Unification that undoes its own bindings on failure, leaving the trail
   as it was.  On success bindings remain (still trailed above the caller's
   own mark). *)
let unify_or_undo ?occurs_check ~trail ~steps a b =
  let mark = Trail.mark trail in
  if unify ?occurs_check ~trail ~steps a b then true
  else begin
    let undone = Trail.undo_to trail mark in
    steps := !steps + undone;
    false
  end

(* [matches a b] checks satisfiability of unification without leaving any
   binding behind; used for clause filtering and analysis. *)
let matches ?occurs_check a b =
  let trail = Trail.create () in
  let steps = ref 0 in
  let ok = unify ?occurs_check ~trail ~steps a b in
  ignore (Trail.undo_to trail 0);
  ok
