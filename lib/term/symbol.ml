(* Interned symbols: every atom and functor name in the system is mapped to
   a small dense integer id exactly once, so the hot paths (unification,
   first-argument indexing, builtin dispatch) compare machine integers and
   index arrays by them instead of touching strings.  Strings reappear
   only at print time, through [name].

   Thread safety.  The hardware or-parallel engine interns from several
   OCaml domains at once (runtime-interned atoms: canonical variable
   markers, asserted terms).  Interning takes a mutex — it happens at parse
   time and on cold paths, never per unification step.  Reverse lookup is
   lock-free: ids resolve through an immutable snapshot {arr; len}
   published with a release store ([Atomic.set]) after the slot is written,
   so a reader whose [Atomic.get] (acquire) observes [len > id] also
   observes the slot write.  An id can only travel to another domain
   through a synchronising channel established after its intern completed
   (the intern mutex, a deque steal, a solution mutex), so the stale-
   snapshot fallback below is unreachable in practice but keeps [name]
   total. *)

type t = int

type store = { arr : string array; len : int }

let mutex = Mutex.create ()

let table : (string, int) Hashtbl.t = Hashtbl.create 256

let store = Atomic.make { arr = Array.make 64 ""; len = 0 }

let equal (a : t) (b : t) = a = b

let id (s : t) : int = s
let of_id (i : int) : t = i

let hash (s : t) = s

(* by id; cheap total order, NOT alphabetical *)
let compare (a : t) (b : t) = Stdlib.compare a b

let intern str : t =
  Mutex.lock mutex;
  let s =
    match Hashtbl.find_opt table str with
    | Some s -> s
    | None ->
      let { arr; len } = Atomic.get store in
      let arr =
        if len < Array.length arr then arr
        else begin
          let bigger = Array.make (2 * Array.length arr) "" in
          Array.blit arr 0 bigger 0 len;
          bigger
        end
      in
      arr.(len) <- str;
      (* release: publishes the slot write together with the new length *)
      Atomic.set store { arr; len = len + 1 };
      Hashtbl.add table str len;
      len
  in
  Mutex.unlock mutex;
  s

let name (s : t) : string =
  let { arr; len } = Atomic.get store in
  if s < len then arr.(s)
  else begin
    (* stale snapshot (see header); synchronise through the mutex *)
    Mutex.lock mutex;
    let { arr; len } = Atomic.get store in
    Mutex.unlock mutex;
    if s < len then arr.(s) else invalid_arg "Symbol.name: unknown id"
  end

let count () = (Atomic.get store).len

(* alphabetical, for the standard order of terms *)
let compare_names a b = if a = b then 0 else String.compare (name a) (name b)

let pp ppf s = Format.pp_print_string ppf (name s)

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
