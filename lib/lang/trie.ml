(* Term tries keyed on alpha-canonical flattened terms (see trie.mli).

   A node is a hashtable from one token to the child node; a value sits
   on the node reached by the whole token list.  The token table is
   monomorphic so lookups hash and compare machine integers only, like
   the database's first-argument index.  The root additionally keeps the
   stored values in insertion order, so table dumps and tests iterate
   deterministically. *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol

type token =
  | Tatom of Symbol.t
  | Tint of int
  | Tstruct of Symbol.t * int
  | Tvar of int

module Tok = struct
  type t = token

  let equal a b =
    match a, b with
    | Tatom x, Tatom y -> Symbol.equal x y
    | Tint x, Tint y -> x = y
    | Tstruct (x, n), Tstruct (y, m) -> Symbol.equal x y && n = m
    | Tvar x, Tvar y -> x = y
    | (Tatom _ | Tint _ | Tstruct _ | Tvar _), _ -> false

  let hash = function
    | Tatom s -> (Symbol.id s lsl 2) lor 0
    | Tint n -> (n lsl 2) lor 1
    | Tstruct (s, n) -> (((Symbol.id s lsl 5) lxor n) lsl 2) lor 2
    | Tvar n -> (n lsl 2) lor 3
end

module TokTbl = Hashtbl.Make (Tok)

let tokens t =
  let vars = Hashtbl.create 8 in
  let next = ref 0 in
  let acc = ref [] in
  let rec go t =
    match Term.deref t with
    | Term.Atom s -> acc := Tatom s :: !acc
    | Term.Int n -> acc := Tint n :: !acc
    | Term.Var v -> (
      match Hashtbl.find_opt vars v.Term.vid with
      | Some n -> acc := Tvar n :: !acc
      | None ->
        let n = !next in
        incr next;
        Hashtbl.add vars v.Term.vid n;
        acc := Tvar n :: !acc)
    | Term.Struct (f, args) ->
      acc := Tstruct (f, Array.length args) :: !acc;
      Array.iter go args
  in
  go t;
  List.rev !acc

let hash toks =
  List.fold_left (fun h tok -> (h * 31) + Tok.hash tok) 5381 toks

type 'a node = {
  mutable value : 'a option;
  children : 'a node TokTbl.t;
}

type 'a t = {
  root : 'a node;
  mutable vals_rev : 'a list;  (* stored values, newest first *)
}

let node () = { value = None; children = TokTbl.create 4 }

let create () = { root = node (); vals_rev = [] }

let rec descend n = function
  | [] -> Some n
  | tok :: rest -> (
    match TokTbl.find_opt n.children tok with
    | None -> None
    | Some child -> descend child rest)

let find t key =
  match descend t.root key with None -> None | Some n -> n.value

(* Walks [key] creating missing nodes, returns the final node. *)
let rec force n = function
  | [] -> n
  | tok :: rest ->
    let child =
      match TokTbl.find_opt n.children tok with
      | Some c -> c
      | None ->
        let c = node () in
        TokTbl.add n.children tok c;
        c
    in
    force child rest

let add t key v =
  let n = force t.root key in
  (match n.value with None -> t.vals_rev <- v :: t.vals_rev | Some _ -> ());
  n.value <- Some v

let iter f t = List.iter f (List.rev t.vals_rev)
