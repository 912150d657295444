(** First-order terms with destructive variable bindings.

    This is the shared term representation for every engine in the
    repository.  Variables carry a mutable [binding] slot; unification binds
    them in place and the {!Trail} records the bindings so backtracking can
    undo them.

    Atom and functor names are interned {!Symbol}s: construct from strings
    with {!atom}/{!struct_}/{!app} (which intern) or directly from symbols;
    identity tests on names are integer comparisons. *)

type t =
  | Atom of Symbol.t
  | Int of int
  | Var of var
  | Struct of Symbol.t * t array

and var = { vid : int; mutable binding : t option }

(** A fresh unbound variable.  Ids only grow: a variable's [vid] is its
    creation stamp. *)
val fresh_var : unit -> var

(** Now, as a creation stamp: every variable created so far (by this
    domain) has [vid <= stamp ()], and every later one a greater id. *)
val stamp : unit -> int

(** [var ()] is [Var (fresh_var ())]. *)
val var : unit -> t

(** [atom name] interns [name]. *)
val atom : string -> t

val int : int -> t

(** [struct_ name args] interns [name]; [Atom] when [args] is empty. *)
val struct_ : string -> t array -> t

(** Like {!struct_} from an already interned symbol (no table lookup). *)
val struct_sym : Symbol.t -> t array -> t

(** [app name args] is {!struct_} on a list. *)
val app : string -> t list -> t

(** Follows variable bindings to the representative term.  Every structural
    inspection must go through [deref]. *)
val deref : t -> t

(** {2 Small arrays without C calls}

    [Array.make] and [Array.sub] reach the OCaml 5 runtime through C
    calls, each a switch to the C stack.  These build small arrays of
    terms by inline allocation instead; wide ones go through one
    out-of-line helper each. *)

(** [cells n x] is [Array.make n x] (inline up to 16 cells). *)
val cells : int -> t -> t array

(** [prefix a n] is [Array.sub a 0 n] (inline up to 8 cells). *)
val prefix : t array -> int -> t array

val nil : t
val cons : t -> t -> t
val of_list : t list -> t

(** [to_list t] is the elements of the proper list [t], or [None]. *)
val to_list : t -> t list option

val is_nil : t -> bool
val true_ : t

val is_ground : t -> bool

(** Free variables in first-occurrence order. *)
val variables : t -> var list

(** Number of term cells (after dereferencing). *)
val size : t -> int

(** [size_at_most t ~limit] is [min (size t) limit], computed in
    O(limit). *)
val size_at_most : t -> limit:int -> int

val depth : t -> int

(** Structural equality modulo dereferencing. *)
val equal : t -> t -> bool

(** Standard order of terms: Var < Int < Atom < Struct. *)
val compare : t -> t -> int

(** [rename_with table t] copies [t] with fresh variables; [table] maps old
    variable ids to their replacements and may be shared between calls to
    rename several terms consistently. *)
val rename_with : (int, var) Hashtbl.t -> t -> t

val rename : t -> t

(** Snapshot of a term that survives backtracking: bindings are resolved
    away, remaining variables are fresh. *)
val copy_resolved : t -> t

(** Functor symbol and arity of an atom or structure. *)
val functor_of : t -> (Symbol.t * int) option

(** {!functor_of} with the name resolved to a string (cold paths only). *)
val functor_name_of : t -> (string * int) option
