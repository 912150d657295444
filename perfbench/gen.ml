(* Seeded workload inputs.  One seed drives everything the engines and
   the server see: the knowledge-base facts, the order and keys of the
   solve passes, and the serve sessions (their lengths, the read keys and
   where the writes fall).  The engines receive only the generated text;
   every expected answer is computed here, from the generated facts, with
   no engine involved. *)

module Programs = Ace_benchmarks.Programs

(* ------------------------------------------------------------------ *)
(* Knowledge base                                                      *)
(* ------------------------------------------------------------------ *)

(* The solve KB: 15k nodes, 3 out-links each, one tag (0-49) each and a
   note on every eighth node: ~62k facts, well past the L2 cache once
   consulted. *)
let nodes = 15_000

(* The serve KB, the same shape on 2k nodes (~8.3k facts).  On the solve
   KB, serve_inproc's ops/s and p99 read up to 27% and 250% worse in 6
   of 20 runs than in the rest, while its p50 held and the same seeds
   read well when run again.  Its 4-hop reads, its retract scans and the
   major GC marking the larger heap wait on memory, whose slow stretches
   the calibration loop, running in cache, likely does not see. *)
let serve_nodes = 2_000

let degree = 3
let ntags = 50
let note_every = 8

type kb = {
  links : int array array;  (* out-neighbours of node i, source order *)
  tags : int array;         (* tag of node i *)
  notes : int list array;   (* base note values of node i, source order *)
  text : string;            (* the program the engines consult *)
}

let rules =
  {|hop2(X, Z) :- link(X, Y), link(Y, Z).
hop3(X, W) :- link(X, Y), link(Y, Z), link(Z, W).
near(X, Y, T) :- link(X, Y), tag(Y, T).
far(X, W) :- link(X, A), link(A, B), link(B, C), link(C, W), tag(W, T), T < 25.
noted(X, Y, V) :- link(X, Y), note(Y, V).
|}

let kb ?(nodes = nodes) seed =
  let rng = Random.State.make [| seed; 1 |] in
  let links =
    Array.init nodes (fun _ ->
        Array.init degree (fun _ -> Random.State.int rng nodes))
  in
  let tags = Array.init nodes (fun _ -> Random.State.int rng ntags) in
  let notes =
    Array.init nodes (fun i ->
        if i mod note_every = 0 then [ Random.State.int rng 1000 ] else [])
  in
  let b = Buffer.create (2 * 1024 * 1024) in
  Array.iteri
    (fun i ys -> Array.iter (fun y -> Printf.bprintf b "link(k%d, k%d).\n" i y) ys)
    links;
  Array.iteri (fun i t -> Printf.bprintf b "tag(k%d, %d).\n" i t) tags;
  Array.iteri
    (fun i vs -> List.iter (fun v -> Printf.bprintf b "note(k%d, v%d).\n" i v) vs)
    notes;
  Buffer.add_string b rules;
  { links; tags; notes; text = Buffer.contents b }

(* Expected answers are the printed instantiated goals, sorted: the form
   both [Ace_check.Canon.multiset] and the server's "solutions" take. *)
let sorted l = List.sort String.compare l

let hop2 kb i =
  Array.to_list kb.links.(i)
  |> List.concat_map (fun y ->
         Array.to_list kb.links.(y)
         |> List.map (fun z -> Printf.sprintf "hop2(k%d,k%d)" i z))
  |> sorted

let hop3 kb i =
  Array.to_list kb.links.(i)
  |> List.concat_map (fun y -> Array.to_list kb.links.(y))
  |> List.concat_map (fun z ->
         Array.to_list kb.links.(z)
         |> List.map (fun w -> Printf.sprintf "hop3(k%d,k%d)" i w))
  |> sorted

let near kb i =
  Array.to_list kb.links.(i)
  |> List.map (fun y -> Printf.sprintf "near(k%d,k%d,%d)" i y kb.tags.(y))
  |> sorted

(* 4-hop paths ending on a node tagged below 25: ~40 of 81 *)
let far kb i =
  let step l = List.concat_map (fun y -> Array.to_list kb.links.(y)) l in
  step (step (step (Array.to_list kb.links.(i))))
  |> List.filter (fun w -> kb.tags.(w) < 25)
  |> List.map (fun w -> Printf.sprintf "far(k%d,k%d)" i w)
  |> sorted

(* [extra] is the session's own live note, if any: (node, value). *)
let noted ?extra kb i =
  Array.to_list kb.links.(i)
  |> List.concat_map (fun y ->
         let own =
           match extra with Some (n, v) when n = y -> [ v ] | _ -> []
         in
         kb.notes.(y) @ own
         |> List.map (fun v -> Printf.sprintf "noted(k%d,k%d,v%d)" i y v))
  |> sorted

(* ------------------------------------------------------------------ *)
(* Solve passes                                                        *)
(* ------------------------------------------------------------------ *)

type cls = Paper | Table | Kb

let cls_name = function Paper -> "paper" | Table -> "table" | Kb -> "kb"

(* The seq_core suite as bench/main.ml runs it (pderiv at four times its
   default size), so the digests in bench/seq_core_expected.txt apply. *)
let paper_programs =
  List.map
    (fun name ->
      let b = Programs.find name in
      let size =
        if name = "pderiv" then 4 * b.Programs.default_size
        else b.Programs.default_size
      in
      (name, b.Programs.program size, b.Programs.query size))
    Ace_harness.Extras.seq_core_benchmarks

(* The three `bench tabling` programs, with the exact answer counts that
   suite asserts. *)
let tabling_programs =
  let path_cycle n =
    let b = Buffer.create 4096 in
    Buffer.add_string b ":- table(path/2).\n";
    for i = 0 to n - 1 do
      Printf.bprintf b "edge(n%d, n%d).\n" i ((i + 1) mod n)
    done;
    for i = 0 to (n / 10) - 1 do
      Printf.bprintf b "edge(n%d, n%d).\n" (i * 10) ((i * 10 + 13) mod n)
    done;
    Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
    Buffer.add_string b "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
    Buffer.contents b
  in
  let tc_double n =
    let b = Buffer.create 4096 in
    Buffer.add_string b ":- table(path/2).\n";
    for i = 0 to n - 1 do
      Printf.bprintf b "edge(n%d, n%d).\n" i ((i + 1) mod n)
    done;
    Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
    Buffer.add_string b "path(X, Y) :- path(X, Z), path(Z, Y).\n";
    Buffer.contents b
  in
  let same_gen depth =
    let b = Buffer.create 4096 in
    Buffer.add_string b ":- table(sg/2).\n";
    let last = (1 lsl (depth + 1)) - 1 in
    for i = 1 to last do
      Printf.bprintf b "node(n%d).\n" i;
      if 2 * i <= last then Printf.bprintf b "edge(n%d, n%d).\n" i (2 * i);
      if (2 * i) + 1 <= last then
        Printf.bprintf b "edge(n%d, n%d).\n" i ((2 * i) + 1)
    done;
    Buffer.add_string b "sg(X, X) :- node(X).\n";
    Buffer.add_string b "sg(X, Y) :- edge(P, X), sg(P, Q), edge(Q, Y).\n";
    Buffer.contents b
  in
  [ ("path_cycle", path_cycle 120, "path(n0, X)", 120);
    ("tc_double", tc_double 20, "path(n0, X)", 20);
    ("same_gen", same_gen 7, "sg(n128, X)", 128) ]

(* What a solve op must produce. *)
type expect =
  | Digest of int * string  (* solution count and Canon digest *)
  | Count of int            (* exact answer count (tabled answer sets) *)
  | Answers of string list  (* sorted printed solutions *)

type op = {
  cls : cls;
  prog : int;   (* index into the workload's prepared programs *)
  goal : string;
  expect : expect;
}

(* Program indices: the paper programs, then the tabling programs, then
   the knowledge base. *)
let kb_prog = List.length paper_programs + List.length tabling_programs

let kb_per_pass = 28 (* two thirds of a 42-op pass *)

let kb_op kb rng =
  let i = Random.State.int rng (Array.length kb.links) in
  if Random.State.bool rng then
    { cls = Kb; prog = kb_prog; goal = Printf.sprintf "hop2(k%d, Z)" i;
      expect = Answers (hop2 kb i) }
  else
    { cls = Kb; prog = kb_prog; goal = Printf.sprintf "near(k%d, Y, T)" i;
      expect = Answers (near kb i) }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Pass [n] of the stream: every paper and tabled query once plus
   [kb_per_pass] knowledge-base queries, interleaved in a seeded order.
   [paper_expect] maps a paper program to its pinned expectation. *)
let pass kb ~paper_expect seed n =
  let rng = Random.State.make [| seed; 2; n |] in
  let paper =
    List.mapi
      (fun i (name, _, query) ->
        { cls = Paper; prog = i; goal = query; expect = paper_expect name })
      paper_programs
  in
  let npaper = List.length paper_programs in
  let table =
    List.mapi
      (fun i (_, _, query, count) ->
        { cls = Table; prog = npaper + i; goal = query; expect = Count count })
      tabling_programs
  in
  let kbs = List.init kb_per_pass (fun _ -> kb_op kb rng) in
  let a = Array.of_list (paper @ table @ kbs) in
  shuffle rng a;
  a

(* ------------------------------------------------------------------ *)
(* Serve sessions                                                      *)
(* ------------------------------------------------------------------ *)

type reply =
  | Solutions of string list  (* a query: its sorted solutions *)
  | Asserted
  | Removed

type request = { line : string; reply : reply }

let json_line fields = Ace_obs.Json.to_string (Ace_obs.Json.Obj fields)

let query_line id goal =
  json_line
    [ ("op", Ace_obs.Json.Str "query"); ("id", Ace_obs.Json.int id);
      ("goal", Ace_obs.Json.Str goal) ]

let clause_line op clause =
  json_line [ ("op", Ace_obs.Json.Str op); ("clause", Ace_obs.Json.Str clause) ]

let quit_line = json_line [ ("op", Ace_obs.Json.Str "quit") ]

(* One read in five is the 4-hop join (~0.3 ms in process), the rest
   3-hop ones (~0.08 ms): so the top 1% of requests falls inside the
   4-hop class rather than at its own slow edge, where the request
   stream's p99 spread 10% between seeds, not 5%. *)
let read_request kb rng id =
  let i = Random.State.int rng (Array.length kb.links) in
  if Random.State.int rng 5 = 0 then
    { line = query_line id (Printf.sprintf "far(k%d, W)" i);
      reply = Solutions (far kb i) }
  else
    { line = query_line id (Printf.sprintf "hop3(k%d, W)" i);
      reply = Solutions (hop3 kb i) }

(* assert a note on a neighbour of [p], read it back through the join,
   retract it.  Values >= 1000 never occur in the base, so the retract
   can only remove the session's own clause. *)
let write_requests kb rng id =
  let p = Random.State.int rng (Array.length kb.links) in
  let y = kb.links.(p).(Random.State.int rng degree) in
  let v = 1000 + Random.State.int rng 1_000_000 in
  let clause = Printf.sprintf "note(k%d, v%d)" y v in
  [ { line = clause_line "assert" clause; reply = Asserted };
    { line = query_line id (Printf.sprintf "noted(k%d, Y, V)" p);
      reply = Solutions (noted ~extra:(y, v) kb p) };
    { line = clause_line "retract" clause; reply = Removed } ]

(* Session [n] of connection [conn]: 24-40 requests, 2-4 of them write
   triples at seeded positions, the rest reads; [quit] is not listed. *)
let session kb seed ~conn n =
  let rng = Random.State.make [| seed; 3; conn; n |] in
  let len = 24 + Random.State.int rng 17 in
  let writes = 2 + Random.State.int rng 3 in
  let reads = len - (3 * writes) in
  let slots = Array.make (reads + writes) false in
  for i = 0 to writes - 1 do slots.(i) <- true done;
  shuffle rng slots;
  let id = ref 0 in
  let next () = incr id; !id in
  Array.to_list slots
  |> List.concat_map (fun w ->
         if w then write_requests kb rng (next ())
         else [ read_request kb rng (next ()) ])

(* The byte form of a stream prefix (passes and sessions), for the
   determinism self-test. *)
let stream_text kb ~paper_expect seed =
  let b = Buffer.create 65536 in
  for n = 0 to 3 do
    Array.iter (fun op -> Printf.bprintf b "%d %s\n" op.prog op.goal)
      (pass kb ~paper_expect seed n)
  done;
  for conn = 0 to 1 do
    for n = 0 to 3 do
      List.iter (fun r -> Printf.bprintf b "%s\n" r.line) (session kb seed ~conn n)
    done
  done;
  Buffer.contents b
