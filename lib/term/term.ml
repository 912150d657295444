(* First-order terms with mutable variable bindings.

   Variables are bound destructively during unification and unbound by the
   trail (see {!Trail}).  All structural traversals must dereference through
   bindings first; [deref] is the single entry point for that.

   Atom and functor names are interned {!Symbol}s: the string is resolved
   once (at parse/construction time) and every later identity test is an
   integer comparison. *)

type t =
  | Atom of Symbol.t
  | Int of int
  | Var of var
  | Struct of Symbol.t * t array

and var = { vid : int; mutable binding : t option }

(* The id counter is atomic so that engines running on several OCaml
   domains (the hardware or-parallel engine) can create fresh variables
   concurrently without ties or torn reads.  On a single domain the
   fetch-and-add costs the same as the old [incr].  The counter never
   goes back, so a variable's id is its creation stamp: conditional
   trailing ({!Trail}) relies on it. *)
let counter = Atomic.make 0

let fresh_var () = { vid = 1 + Atomic.fetch_and_add counter 1; binding = None }

let stamp () = Atomic.get counter

let var () = Var (fresh_var ())

let atom name = Atom (Symbol.intern name)

let int n = Int n

let struct_sym s args = if Array.length args = 0 then Atom s else Struct (s, args)

let struct_ name args = struct_sym (Symbol.intern name) args

let app name args = struct_ name (Array.of_list args)

let rec deref t =
  match t with
  | Var { binding = Some t'; _ } -> deref t'
  | Var _ | Atom _ | Int _ | Struct _ -> t

(* Small arrays built inline.  In OCaml 5, [Array.make], [Array.sub] and
   [Array.map] reach the runtime through C calls, each a switch to the C
   stack; an array literal of terms (never floats) is an inline
   allocation.  The solver's hot paths therefore build their small
   arrays by literal, and each wide case goes through one out-of-line
   helper, so the callers' bodies hold no C call. *)

let[@inline never] cells_wide n (x : t) = Array.make n x

(* [n] fresh cells holding [x]. *)
let cells n (x : t) : t array =
  match n with
  | 0 -> [||]
  | 1 -> [| x |]
  | 2 -> [| x; x |]
  | 3 -> [| x; x; x |]
  | 4 -> [| x; x; x; x |]
  | 5 -> [| x; x; x; x; x |]
  | 6 -> [| x; x; x; x; x; x |]
  | 7 -> [| x; x; x; x; x; x; x |]
  | 8 -> [| x; x; x; x; x; x; x; x |]
  | 9 -> [| x; x; x; x; x; x; x; x; x |]
  | 10 -> [| x; x; x; x; x; x; x; x; x; x |]
  | 11 -> [| x; x; x; x; x; x; x; x; x; x; x |]
  | 12 -> [| x; x; x; x; x; x; x; x; x; x; x; x |]
  | 13 -> [| x; x; x; x; x; x; x; x; x; x; x; x; x |]
  | 14 -> [| x; x; x; x; x; x; x; x; x; x; x; x; x; x |]
  | 15 -> [| x; x; x; x; x; x; x; x; x; x; x; x; x; x; x |]
  | 16 -> [| x; x; x; x; x; x; x; x; x; x; x; x; x; x; x; x |]
  | _ -> cells_wide n x

let[@inline never] prefix_wide (a : t array) n = Array.sub a 0 n

(* A fresh copy of the first [n] cells of [a]. *)
let prefix (a : t array) n : t array =
  match n with
  | 0 -> [||]
  | 1 -> [| a.(0) |]
  | 2 -> [| a.(0); a.(1) |]
  | 3 -> [| a.(0); a.(1); a.(2) |]
  | 4 -> [| a.(0); a.(1); a.(2); a.(3) |]
  | 5 -> [| a.(0); a.(1); a.(2); a.(3); a.(4) |]
  | 6 -> [| a.(0); a.(1); a.(2); a.(3); a.(4); a.(5) |]
  | 7 -> [| a.(0); a.(1); a.(2); a.(3); a.(4); a.(5); a.(6) |]
  | 8 -> [| a.(0); a.(1); a.(2); a.(3); a.(4); a.(5); a.(6); a.(7) |]
  | _ -> prefix_wide a n

let[@inline never] map_wide f (a : t array) : t array = Array.map f a

(* [Array.map f a], left to right. *)
let map_cells f (a : t array) : t array =
  match Array.length a with
  | 0 -> [||]
  | 1 -> [| f a.(0) |]
  | 2 ->
    let x = f a.(0) in
    let y = f a.(1) in
    [| x; y |]
  | 3 ->
    let x = f a.(0) in
    let y = f a.(1) in
    let z = f a.(2) in
    [| x; y; z |]
  | 4 ->
    let x = f a.(0) in
    let y = f a.(1) in
    let z = f a.(2) in
    let w = f a.(3) in
    [| x; y; z; w |]
  | _ -> map_wide f a

let nil = Atom Symbol.nil

let cons h t = Struct (Symbol.dot, [| h; t |])

let rec of_list = function
  | [] -> nil
  | x :: rest -> cons x (of_list rest)

(* Converts a Prolog list term to an OCaml list; [None] if not a proper
   list. *)
let to_list t =
  let rec go acc t =
    match deref t with
    | Atom s when Symbol.equal s Symbol.nil -> Some (List.rev acc)
    | Struct (s, [| h; tl |]) when Symbol.equal s Symbol.dot -> go (h :: acc) tl
    | Atom _ | Int _ | Var _ | Struct _ -> None
  in
  go [] t

let is_nil t =
  match deref t with Atom s -> Symbol.equal s Symbol.nil | _ -> false

let true_ = Atom Symbol.true_

let rec is_ground t =
  match deref t with
  | Atom _ | Int _ -> true
  | Var _ -> false
  | Struct (_, args) -> Array.for_all is_ground args

(* Free (unbound, after dereferencing) variables, in first-occurrence
   order. *)
let variables t =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go t =
    match deref t with
    | Atom _ | Int _ -> ()
    | Var v ->
      if not (Hashtbl.mem seen v.vid) then begin
        Hashtbl.add seen v.vid ();
        acc := v :: !acc
      end
    | Struct (_, args) -> Array.iter go args
  in
  go t;
  List.rev !acc

let rec size t =
  match deref t with
  | Atom _ | Int _ | Var _ -> 1
  | Struct (_, args) -> Array.fold_left (fun n a -> n + size a) 1 args

(* Bounded size: counts cells up to [limit] then stops — cheap enough to
   use as a runtime granularity estimate. *)
let size_at_most t ~limit =
  let rec go budget t =
    if budget <= 0 then 0
    else
      match deref t with
      | Atom _ | Int _ | Var _ -> budget - 1
      | Struct (_, args) ->
        Array.fold_left (fun b a -> if b <= 0 then 0 else go b a) (budget - 1) args
  in
  limit - go limit t

let rec depth t =
  match deref t with
  | Atom _ | Int _ | Var _ -> 1
  | Struct (_, args) -> 1 + Array.fold_left (fun n a -> max n (depth a)) 0 args

(* Structural equality modulo dereferencing.  Unbound variables are equal
   only to themselves. *)
let rec equal a b =
  match deref a, deref b with
  | Atom x, Atom y -> Symbol.equal x y
  | Int x, Int y -> x = y
  | Var x, Var y -> x.vid = y.vid
  | Struct (f, xs), Struct (g, ys) ->
    Symbol.equal f g
    && Array.length xs = Array.length ys
    && (let rec all i = i >= Array.length xs || (equal xs.(i) ys.(i) && all (i + 1)) in
        all 0)
  | (Atom _ | Int _ | Var _ | Struct _), _ -> false

(* Standard order of terms: Var < Int < Atom < Struct; structs by arity,
   then name, then arguments left to right.  Atoms order alphabetically
   (via [Symbol.compare_names]) with an id fast path for equality. *)
let rec compare a b =
  let rank = function Var _ -> 0 | Int _ -> 1 | Atom _ -> 2 | Struct _ -> 3 in
  match deref a, deref b with
  | Var x, Var y -> Stdlib.compare x.vid y.vid
  | Int x, Int y -> Stdlib.compare x y
  | Atom x, Atom y -> Symbol.compare_names x y
  | Struct (f, xs), Struct (g, ys) ->
    let c = Stdlib.compare (Array.length xs) (Array.length ys) in
    if c <> 0 then c
    else
      let c = Symbol.compare_names f g in
      if c <> 0 then c
      else
        let rec go i =
          if i >= Array.length xs then 0
          else
            let c = compare xs.(i) ys.(i) in
            if c <> 0 then c else go (i + 1)
        in
        go 0
  | a, b -> Stdlib.compare (rank a) (rank b)

(* Copies a term, producing fresh variables for the unbound variables; the
   mapping table is shared across calls so several terms can be renamed
   consistently (e.g. a clause head and body). *)
let rename_with table t =
  let rec go t =
    match deref t with
    | (Atom _ | Int _) as t' -> t'
    | Var v ->
      (match Hashtbl.find_opt table v.vid with
       | Some v' -> Var v'
       | None ->
         let v' = fresh_var () in
         Hashtbl.add table v.vid v';
         Var v')
    | Struct (f, args) -> Struct (f, Array.map go args)
  in
  go t

let rename t = rename_with (Hashtbl.create 16) t

(* Snapshots a term into a binding-free value: bound variables are resolved
   away, unbound variables become fresh.  Used when a solution must survive
   subsequent backtracking.  Solution terms are usually ground, so the
   vid -> fresh-var table is allocated lazily, on the first unbound variable
   actually encountered. *)
let copy_resolved t =
  let table = ref None in
  let rec resolve t =
    match deref t with
    | (Atom _ | Int _) as t' -> t'
    | Var v ->
      let tbl =
        match !table with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 8 in
          table := Some h;
          h
      in
      (match Hashtbl.find_opt tbl v.vid with
       | Some v' -> Var v'
       | None ->
         let v' = fresh_var () in
         Hashtbl.add tbl v.vid v';
         Var v')
    | Struct (f, args) -> Struct (f, map_cells resolve args)
  in
  resolve t

let functor_of t =
  match deref t with
  | Atom s -> Some (s, 0)
  | Struct (s, args) -> Some (s, Array.length args)
  | Int _ | Var _ -> None

let functor_name_of t =
  match functor_of t with
  | Some (s, n) -> Some (Symbol.name s, n)
  | None -> None
