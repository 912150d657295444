(* Engine configuration: number of simulated agents plus one switch per
   optimization of the paper. *)

type t = {
  agents : int;
  lpco : bool; (* last parallel call optimization   (flattening, §3.1) *)
  lao : bool;  (* last alternative optimization     (flattening, §3.2) *)
  spo : bool;  (* shallow parallelism optimization  (procrastination, §4.1) *)
  pdo : bool;  (* processor determinacy optimization (sequentialization, §4.2) *)
  par_and : bool;
    (* multicore engine only: execute '&' conjunctions in parallel
       (parcall frames + cross-product join) in addition to the
       or-parallel work stealing.  The simulated engines ignore it. *)
  seq_threshold : int;
    (* granularity control (an instance of the sequentialization schema the
       paper names in §4): parallel conjunctions whose estimated work is
       below this many term cells run sequentially, without a frame.
       0 disables it. *)
  grain : int;
    (* or-parallel granularity: a choice point is published (environment
       copy) only if it still has at least this many untried alternatives;
       smaller nodes are kept for private backtracking.  1 = publish
       anything (no granularity control). *)
  compile : bool;
    (* sequential engine only: execute flat clause code (get/unify/put
       instructions) through the switch-on-term dispatch tree instead of
       interpreting templates.  Off by default so [default] stays the
       interpreted oracle reference; ace_run and ace_serve turn it on.
       The other engines have one mode each and ignore it. *)
  table_max_answers : int;
    (* tabling guard: a tabled subgoal accumulating more than this many
       distinct answers aborts the run with an engine error (runaway
       recursion over an unexpectedly large domain).  0 disables the
       guard. *)
  cost : Cost.t;
  max_solutions : int option; (* stop after this many solutions; None = all *)
}

let default =
  {
    agents = 1;
    lpco = false;
    lao = false;
    spo = false;
    pdo = false;
    par_and = false;
    seq_threshold = 0;
    grain = 1;
    compile = false;
    table_max_answers = 0;
    cost = Cost.default;
    max_solutions = None;
  }

let unoptimized ?(agents = 1) () = { default with agents }

let all_optimizations ?(agents = 1) () =
  { default with agents; lpco = true; lao = true; spo = true; pdo = true }

(* Every rule is a lower bound on one integer field; [max_solutions =
   Some 0] asks for no solutions and is valid.  Allocates nothing: every
   engine run calls it. *)
let check t =
  if t.agents < 1 then Error ("agents", 1)
  else if t.seq_threshold < 0 then Error ("seq_threshold", 0)
  else if t.grain < 1 then Error ("grain", 1)
  else if t.table_max_answers < 0 then Error ("table_max_answers", 0)
  else
    match t.max_solutions with
    | Some n when n < 0 -> Error ("max_solutions", 0)
    | Some _ | None -> Ok ()

let validate t =
  match check t with
  | Ok () -> t
  | Error (field, lo) ->
    invalid_arg (Printf.sprintf "Config: %s must be >= %d" field lo)

let pp ppf t =
  let flag name b = if b then [ name ] else [] in
  let opts =
    flag "lpco" t.lpco @ flag "lao" t.lao @ flag "spo" t.spo @ flag "pdo" t.pdo
    @ flag "par_and" t.par_and
    @ (if t.seq_threshold > 0 then [ Printf.sprintf "gc=%d" t.seq_threshold ] else [])
    @ (if t.grain > 1 then [ Printf.sprintf "grain=%d" t.grain ] else [])
    @ (if t.table_max_answers > 0 then
         [ Printf.sprintf "table_max=%d" t.table_max_answers ]
       else [])
  in
  Format.fprintf ppf "agents=%d opts={%s}" t.agents (String.concat "," opts)
