(* Interned symbols: every atom and functor name in the system is mapped to
   a small dense integer id exactly once, so the hot paths (unification,
   first-argument indexing, builtin dispatch) compare machine integers and
   index arrays by them instead of touching strings.  Strings reappear
   only at print time, through [name] and [text].

   Thread safety.  The hardware or-parallel engine interns from several
   OCaml domains at once (runtime-interned atoms: canonical variable
   markers, asserted terms).  Interning takes a mutex — it happens at parse
   time and on cold paths, never per unification step.  Reverse lookup is
   lock-free: ids resolve through an immutable snapshot {names; texts; len}
   published with a release store ([Atomic.set]) after the slots are
   written, so a reader whose [Atomic.get] (acquire) observes [len > id]
   also observes the slot writes.  An id can only travel to another domain
   through a synchronising channel established after its intern completed
   (the intern mutex, a deque steal, a solution mutex), so the stale-
   snapshot fallback below is unreachable in practice but keeps [name]
   and [text] total. *)

type t = int

type store = { names : string array; texts : string array; len : int }

let mutex = Mutex.create ()

let table : (string, int) Hashtbl.t = Hashtbl.create 256

let store = Atomic.make { names = Array.make 64 ""; texts = Array.make 64 ""; len = 0 }

let equal (a : t) (b : t) = a = b

let id (s : t) : int = s
let of_id (i : int) : t = i

let hash (s : t) = s

(* by id; cheap total order, NOT alphabetical *)
let compare (a : t) (b : t) = Stdlib.compare a b

(* The printed form of a name.  A letter name (lower-case first), a
   symbolic name and [] ! ; {} read back unquoted as the same atom;
   anything else is quoted, with ', \ and newline escaped.  "." alone is
   quoted too: unquoted it would lex as the end-of-clause dot. *)
let is_letter_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let is_symbolic_name name =
  String.length name > 0
  && String.for_all
       (function
         | '+' | '-' | '*' | '/' | '\\' | '^' | '<' | '>' | '=' | '~' | ':'
         | '.' | '?' | '@' | '#' | '&' | '$' ->
           true
         | _ -> false)
       name

let quoted_text name =
  if
    String.equal name "."
    || (not (is_letter_name name || is_symbolic_name name)
       && not (List.mem name [ "[]"; "!"; ";"; "{}" ]))
  then begin
    let buf = Buffer.create (String.length name + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (function
        | '\'' -> Buffer.add_string buf "\\'"
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      name;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  end
  else name

let intern str : t =
  Mutex.lock mutex;
  let s =
    match Hashtbl.find_opt table str with
    | Some s -> s
    | None ->
      let { names; texts; len } = Atomic.get store in
      let grow a =
        if len < Array.length a then a
        else begin
          let bigger = Array.make (2 * Array.length a) "" in
          Array.blit a 0 bigger 0 len;
          bigger
        end
      in
      let names = grow names and texts = grow texts in
      names.(len) <- str;
      texts.(len) <- quoted_text str;
      (* release: publishes the slot writes together with the new length *)
      Atomic.set store { names; texts; len = len + 1 };
      Hashtbl.add table str len;
      len
  in
  Mutex.unlock mutex;
  s

(* A stale snapshot (see header): synchronise through the mutex. *)
let[@inline never] synchronised (s : t) =
  Mutex.lock mutex;
  let st = Atomic.get store in
  Mutex.unlock mutex;
  if s < st.len then st else invalid_arg "Symbol.name: unknown id"

let name (s : t) : string =
  let st = Atomic.get store in
  if s < st.len then Array.unsafe_get st.names s else (synchronised s).names.(s)

let text (s : t) : string =
  let st = Atomic.get store in
  if s < st.len then Array.unsafe_get st.texts s else (synchronised s).texts.(s)

let count () = (Atomic.get store).len

(* alphabetical, for the standard order of terms *)
let compare_names a b = if a = b then 0 else String.compare (name a) (name b)

let pp ppf s = Format.pp_print_string ppf (name s)

let by_id bindings =
  let bindings = List.map (fun (name, v) -> (intern name, v)) bindings in
  let table = Array.make (1 + List.fold_left (fun m (s, _) -> max m s) 0 bindings) None in
  List.iter (fun (s, v) -> table.(s) <- Some v) bindings;
  table

let find table s = if s < Array.length table then Array.unsafe_get table s else None

(* Structural symbols, pre-interned at load time so pattern guards compare
   against constants. *)
let nil = intern "[]"
let dot = intern "."
let comma = intern ","
let semicolon = intern ";"
let arrow = intern "->"
let amp = intern "&"
let cut = intern "!"
let true_ = intern "true"
let fail = intern "fail"
let false_ = intern "false"
let neck = intern ":-"
let query = intern "?-"
let naf = intern "\\+"
let call = intern "call"
let solution = intern "$solution"
let curly = intern "{}"
