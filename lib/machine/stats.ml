(* Execution statistics.

   Engines update one record per run; the harness reads both the simulated
   completion time and the structural counters (allocations, traversals)
   that explain it.  [merge] folds per-agent records into a run total. *)

type t = {
  mutable unify_steps : int;
  mutable code_instrs : int; (* compiled clause-code instructions executed *)
  mutable env_allocs : int;
    (* heap environments allocated for compiled bodies; 0 on a pure
       scratch-frame (LCO) run *)
  mutable clause_tries : int;
  mutable builtin_calls : int;
  mutable trail_pushes : int;
  mutable untrails : int;
  (* nondeterminism *)
  mutable cp_allocs : int;
  mutable cp_updates : int;       (* LAO in-place updates *)
  mutable backtracks : int;
  mutable bt_nodes_visited : int; (* nodes walked during backtracking *)
  (* and-parallelism *)
  mutable frames : int;           (* parcall frames allocated *)
  mutable slots : int;            (* subgoal slots initialised *)
  mutable input_markers : int;
  mutable end_markers : int;
  mutable markers_avoided : int;  (* by SPO and PDO *)
  mutable frames_avoided : int;   (* by LPCO *)
  mutable max_frame_nesting : int;
  mutable kills : int;
  (* or-parallelism *)
  mutable copies : int;           (* stack-copy operations *)
  mutable copied_cells : int;
  mutable or_scans : int;         (* choice points scanned for work *)
  mutable publish_skipped_small : int; (* grain control declined a publish *)
  (* scheduling *)
  mutable steals : int;
  mutable polls : int;
  mutable task_switches : int;
  (* optimization hits *)
  mutable lpco_hits : int;
  mutable lao_hits : int;
  mutable spo_hits : int;
  mutable pdo_hits : int;
  mutable seq_hits : int; (* granularity control: parcalls sequentialized *)
  (* tabling *)
  mutable table_subgoals : int;    (* subgoal-table entries created *)
  mutable table_answers : int;     (* distinct answers inserted *)
  mutable table_answer_hits : int; (* tabled calls served from a complete table *)
  mutable table_variant_hits : int;(* variant calls that reused an entry *)
  mutable table_suspends : int;    (* consumers of an incomplete table *)
  mutable table_resumes : int;     (* the fallback's naive region re-passes *)
  (* outcomes *)
  mutable solutions : int;
  mutable stack_words : int;      (* cumulative control-stack allocation *)
  mutable minor_words : int;      (* GC minor words allocated by the solve *)
  mutable promoted_words : int;   (* GC words promoted to the major heap *)
}

let create () =
  {
    unify_steps = 0;
    code_instrs = 0;
    env_allocs = 0;
    clause_tries = 0;
    builtin_calls = 0;
    trail_pushes = 0;
    untrails = 0;
    cp_allocs = 0;
    cp_updates = 0;
    backtracks = 0;
    bt_nodes_visited = 0;
    frames = 0;
    slots = 0;
    input_markers = 0;
    end_markers = 0;
    markers_avoided = 0;
    frames_avoided = 0;
    max_frame_nesting = 0;
    kills = 0;
    copies = 0;
    copied_cells = 0;
    or_scans = 0;
    publish_skipped_small = 0;
    steals = 0;
    polls = 0;
    task_switches = 0;
    lpco_hits = 0;
    lao_hits = 0;
    spo_hits = 0;
    pdo_hits = 0;
    seq_hits = 0;
    table_subgoals = 0;
    table_answers = 0;
    table_answer_hits = 0;
    table_variant_hits = 0;
    table_suspends = 0;
    table_resumes = 0;
    solutions = 0;
    stack_words = 0;
    minor_words = 0;
    promoted_words = 0;
  }

let merge_into ~into:a b =
  a.unify_steps <- a.unify_steps + b.unify_steps;
  a.code_instrs <- a.code_instrs + b.code_instrs;
  a.env_allocs <- a.env_allocs + b.env_allocs;
  a.clause_tries <- a.clause_tries + b.clause_tries;
  a.builtin_calls <- a.builtin_calls + b.builtin_calls;
  a.trail_pushes <- a.trail_pushes + b.trail_pushes;
  a.untrails <- a.untrails + b.untrails;
  a.cp_allocs <- a.cp_allocs + b.cp_allocs;
  a.cp_updates <- a.cp_updates + b.cp_updates;
  a.backtracks <- a.backtracks + b.backtracks;
  a.bt_nodes_visited <- a.bt_nodes_visited + b.bt_nodes_visited;
  a.frames <- a.frames + b.frames;
  a.slots <- a.slots + b.slots;
  a.input_markers <- a.input_markers + b.input_markers;
  a.end_markers <- a.end_markers + b.end_markers;
  a.markers_avoided <- a.markers_avoided + b.markers_avoided;
  a.frames_avoided <- a.frames_avoided + b.frames_avoided;
  a.max_frame_nesting <- max a.max_frame_nesting b.max_frame_nesting;
  a.kills <- a.kills + b.kills;
  a.copies <- a.copies + b.copies;
  a.copied_cells <- a.copied_cells + b.copied_cells;
  a.or_scans <- a.or_scans + b.or_scans;
  a.publish_skipped_small <- a.publish_skipped_small + b.publish_skipped_small;
  a.steals <- a.steals + b.steals;
  a.polls <- a.polls + b.polls;
  a.task_switches <- a.task_switches + b.task_switches;
  a.lpco_hits <- a.lpco_hits + b.lpco_hits;
  a.lao_hits <- a.lao_hits + b.lao_hits;
  a.spo_hits <- a.spo_hits + b.spo_hits;
  a.pdo_hits <- a.pdo_hits + b.pdo_hits;
  a.seq_hits <- a.seq_hits + b.seq_hits;
  a.table_subgoals <- a.table_subgoals + b.table_subgoals;
  a.table_answers <- a.table_answers + b.table_answers;
  a.table_answer_hits <- a.table_answer_hits + b.table_answer_hits;
  a.table_variant_hits <- a.table_variant_hits + b.table_variant_hits;
  a.table_suspends <- a.table_suspends + b.table_suspends;
  a.table_resumes <- a.table_resumes + b.table_resumes;
  a.solutions <- a.solutions + b.solutions;
  a.stack_words <- a.stack_words + b.stack_words;
  a.minor_words <- a.minor_words + b.minor_words;
  a.promoted_words <- a.promoted_words + b.promoted_words

(* Minor words come from [Gc.minor_words], which reads the minor heap's
   allocation pointer and is exact to the word.  [Gc.counters]'s minor
   figure is not on OCaml 5.1 (it counts the words in the current minor
   heap divided by the word size a second time), so only its promoted
   figure, a per-collection total, is taken from it.  Its call
   allocates, so it is made outside the measured span (before the
   mark's minor reading, after the final one): of the bookkeeping, only
   the mark record itself is counted. *)
type alloc_mark = { minor0 : float; promoted0 : float }

let alloc_mark () =
  let _, promoted0, _ = Gc.counters () in
  { minor0 = Gc.minor_words (); promoted0 }

let add_alloc_since t { minor0; promoted0 } =
  let minor1 = Gc.minor_words () in
  let _, promoted1, _ = Gc.counters () in
  t.minor_words <- t.minor_words + int_of_float (minor1 -. minor0);
  t.promoted_words <- t.promoted_words + int_of_float (promoted1 -. promoted0)

let fields t =
  [ ("unify_steps", t.unify_steps);
    ("code_instrs", t.code_instrs);
    ("env_allocs", t.env_allocs);
    ("clause_tries", t.clause_tries);
    ("builtin_calls", t.builtin_calls);
    ("trail_pushes", t.trail_pushes);
    ("untrails", t.untrails);
    ("cp_allocs", t.cp_allocs);
    ("cp_updates", t.cp_updates);
    ("backtracks", t.backtracks);
    ("bt_nodes_visited", t.bt_nodes_visited);
    ("frames", t.frames);
    ("slots", t.slots);
    ("input_markers", t.input_markers);
    ("end_markers", t.end_markers);
    ("markers_avoided", t.markers_avoided);
    ("frames_avoided", t.frames_avoided);
    ("max_frame_nesting", t.max_frame_nesting);
    ("kills", t.kills);
    ("copies", t.copies);
    ("copied_cells", t.copied_cells);
    ("or_scans", t.or_scans);
    ("publish_skipped_small", t.publish_skipped_small);
    ("steals", t.steals);
    ("polls", t.polls);
    ("task_switches", t.task_switches);
    ("lpco_hits", t.lpco_hits);
    ("lao_hits", t.lao_hits);
    ("spo_hits", t.spo_hits);
    ("pdo_hits", t.pdo_hits);
    ("seq_hits", t.seq_hits);
    ("table_subgoals", t.table_subgoals);
    ("table_answers", t.table_answers);
    ("table_answer_hits", t.table_answer_hits);
    ("table_variant_hits", t.table_variant_hits);
    ("table_suspends", t.table_suspends);
    ("table_resumes", t.table_resumes);
    ("solutions", t.solutions);
    ("stack_words", t.stack_words);
    ("minor_words", t.minor_words);
    ("promoted_words", t.promoted_words) ]

(* Writes one named counter.  Must stay in sync with [fields]; the
   unknown-name case is reserved for forward compatibility of
   [of_fields] (a JSON dump from a newer build parses without error). *)
let set_field t name v =
  match name with
  | "unify_steps" -> t.unify_steps <- v
  | "code_instrs" -> t.code_instrs <- v
  | "env_allocs" -> t.env_allocs <- v
  | "clause_tries" -> t.clause_tries <- v
  | "builtin_calls" -> t.builtin_calls <- v
  | "trail_pushes" -> t.trail_pushes <- v
  | "untrails" -> t.untrails <- v
  | "cp_allocs" -> t.cp_allocs <- v
  | "cp_updates" -> t.cp_updates <- v
  | "backtracks" -> t.backtracks <- v
  | "bt_nodes_visited" -> t.bt_nodes_visited <- v
  | "frames" -> t.frames <- v
  | "slots" -> t.slots <- v
  | "input_markers" -> t.input_markers <- v
  | "end_markers" -> t.end_markers <- v
  | "markers_avoided" -> t.markers_avoided <- v
  | "frames_avoided" -> t.frames_avoided <- v
  | "max_frame_nesting" -> t.max_frame_nesting <- v
  | "kills" -> t.kills <- v
  | "copies" -> t.copies <- v
  | "copied_cells" -> t.copied_cells <- v
  | "or_scans" -> t.or_scans <- v
  | "publish_skipped_small" -> t.publish_skipped_small <- v
  | "steals" -> t.steals <- v
  | "polls" -> t.polls <- v
  | "task_switches" -> t.task_switches <- v
  | "lpco_hits" -> t.lpco_hits <- v
  | "lao_hits" -> t.lao_hits <- v
  | "spo_hits" -> t.spo_hits <- v
  | "pdo_hits" -> t.pdo_hits <- v
  | "seq_hits" -> t.seq_hits <- v
  | "table_subgoals" -> t.table_subgoals <- v
  | "table_answers" -> t.table_answers <- v
  | "table_answer_hits" -> t.table_answer_hits <- v
  | "table_variant_hits" -> t.table_variant_hits <- v
  | "table_suspends" -> t.table_suspends <- v
  | "table_resumes" -> t.table_resumes <- v
  | "solutions" -> t.solutions <- v
  | "stack_words" -> t.stack_words <- v
  | "minor_words" -> t.minor_words <- v
  | "promoted_words" -> t.promoted_words <- v
  | _ -> ()

let of_fields pairs =
  let t = create () in
  List.iter (fun (name, v) -> set_field t name v) pairs;
  t

(* All counters are ints, so the JSON object is trivially well formed;
   kept dependency-free (Ace_obs depends on this module, not vice versa). *)
let to_json t =
  "{"
  ^ String.concat ", "
      (List.map (fun (name, v) -> Printf.sprintf "\"%s\": %d" name v) (fields t))
  ^ "}"

let pp ?(verbose = false) ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, value) ->
      if verbose || value <> 0 then Format.fprintf ppf "%-21s %d@," name value)
    (fields t);
  Format.fprintf ppf "@]"
