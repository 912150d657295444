(** Interned symbols: atom and functor names mapped to small dense integer
    ids, so term equality, indexing, and dispatch compare machine integers.
    Strings reappear only at print time, through {!name} and {!text}.

    The table is shared by every domain of the process.  {!intern} is
    mutex-protected; {!name} and {!text} are lock-free reads of an
    atomically published snapshot, safe to call from any domain for any id
    it has observed. *)

type t

(** Interns a string, returning its unique id.  Idempotent: the same string
    always yields the same symbol, from any domain. *)
val intern : string -> t

(** The string this symbol was interned from. *)
val name : t -> string

(** The symbol's printed form, as {!Pp} writes an atom or a functor: the
    name itself when it reads back unquoted as the same atom (a letter
    name, a symbolic name, [[]], [!], [;], [{}]), otherwise the name in
    single quotes with ['], [\] and newline escaped.  Computed once, when
    the symbol is interned. *)
val text : t -> string

(** The raw integer id (dense, starting at 0). *)
val id : t -> int

(** The symbol with raw id [i] — the inverse of {!id}.  [i] must have
    been obtained from {!id} in this process (ids are not stable across
    runs). *)
val of_id : int -> t

(** Integer equality — the whole point. *)
val equal : t -> t -> bool

val hash : t -> int

(** Total order by id (cheap, arbitrary). *)
val compare : t -> t -> int

(** Alphabetical order of the underlying names (for the standard order of
    terms); resolves strings, so keep it off hot paths. *)
val compare_names : t -> t -> int

(** Number of interned symbols. *)
val count : unit -> int

val pp : Format.formatter -> t -> unit

(** {2 Tables by symbol id} *)

(** [by_id bindings] interns each name and returns an array indexed by
    symbol id: [Some v] at each name's id, [None] elsewhere.  The array
    reaches only the largest id bound; read it with {!find}. *)
val by_id : (string * 'a) list -> 'a option array

(** [find table s] is [Some v] when [table] binds [s] to [v]: an array
    read, no hashing. *)
val find : 'a option array -> t -> 'a option

(** {2 Pre-interned structural symbols}

    [nil]="[]", [dot]=".", [comma]=",", [semicolon]=";", [arrow]="->",
    [amp]="&", [cut]="!", [true_]="true", [fail]="fail", [false_]="false",
    [neck]=":-", [query]="?-", [naf]="\\+", [call]="call",
    [solution]="$solution", [curly]="{}". *)

val nil : t
val dot : t
val comma : t
val semicolon : t
val arrow : t
val amp : t
val cut : t
val true_ : t
val fail : t
val false_ : t
val neck : t
val query : t
val naf : t
val call : t
val solution : t
val curly : t
