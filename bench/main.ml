(* The bench tool: each suite runs its programs, checks its gates and
   writes its timings and counters to BENCH_<suite>.json in the current
   directory, in the one schema of Ace_harness.Bench (timed rows read
   with perfbench's estimator).

     dune exec bench/main.exe -- seq_core [record] # hot path + solution digests
     dune exec bench/main.exe -- alloc [record]    # minor words/solution pins
     dune exec bench/main.exe -- profile           # hotspots + profiler cost
     dune exec bench/main.exe -- par_or            # or-parallel domains sweep
     dune exec bench/main.exe -- par_and           # parcall frames sweep
     dune exec bench/main.exe -- tabling           # SLG answers + work gates
     dune exec bench/main.exe -- serve             # query server + deadline

   seq_core and alloc read their pinned files from bench/ under the
   current directory (`record` rewrites them instead), and profile reads
   the BENCH_seq_core.json there.  A suite whose gate fails exits 1. *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Programs = Ace_benchmarks.Programs
module Program = Ace_lang.Program
module Canon = Ace_check.Canon
module Prof = Ace_obs.Prof
module Json = Ace_obs.Json
module Metrics = Ace_obs.Metrics
module Bench = Ace_harness.Bench
module Extras = Ace_harness.Extras
module Stat = Ace_harness.Stat

let solutions r = float_of_int (List.length r.Engine.solutions)
let stat f r = float_of_int (f r.Engine.stats)

let warn_domains requested =
  let cores = Bench.cores () in
  if requested > cores then
    Format.eprintf
      "warning: sweep requests %d domains but this host has %d core(s); \
       speedups above %d domains measure scheduling, not parallelism@."
      requested cores cores

(* A pinned file: [record] rewrites it from this run, otherwise [check]
   compares this run with it. *)
let pinned ~record file ~render ~check =
  if record then begin
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc (render ()));
    Format.printf "recorded %s@." file;
    []
  end
  else
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error _ ->
      [ Printf.sprintf "missing %s (run with `record` once)" file ]
    | expected -> check expected

(* ------------------------------------------------------------------ *)
(* seq_core, alloc and profile: the engine hot path                     *)
(* ------------------------------------------------------------------ *)

(* pderiv's experiment size solves in ~0.25 ms; the suite quadruples it *)
let seq_core_size b =
  if b.Programs.name = "pderiv" then 4 * b.Programs.default_size
  else b.Programs.default_size

(* One run on a fresh database, after a full major collection so each
   run starts from the same heap; consult and freeze are not timed
   (they are the same for every engine and mode). *)
let fresh_run ?(prof = Prof.disabled) kind compile name =
  let b = Programs.find name in
  let size = seq_core_size b in
  let db = Program.db (Program.consult_string (b.Programs.program size)) in
  let q = Program.parse_query (b.Programs.query size) in
  Ace_lang.Database.freeze db;
  Gc.full_major ();
  Engine.solve
    ~opts:{ Engine.default_opts with Engine.prof }
    kind
    { Config.default with Config.agents = 1; compile }
    db q.Program.goal

let seq_core_key suite name kind compile =
  { Bench.suite; benchmark = name;
    engine = Engine.kind_to_string kind ^ (if compile then "/c" else "");
    domains = 1; config = "default" }

let words_per_solution r =
  float_of_int r.Engine.stats.Ace_machine.Stats.minor_words
  /. float_of_int (max 1 (List.length r.Engine.solutions))

(* Every engine in each of its execution modes: the rows double as a
   cross-engine check, and the seq/seq/c pair as a compiler check, of
   the alpha-canonical solution digests pinned in
   bench/seq_core_expected.txt. *)
let seq_core ~record =
  let digests = ref [] in
  let rows =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun kind ->
            List.concat_map
              (fun compile ->
                let key = seq_core_key "seq_core" name kind compile in
                let run () =
                  let r = fresh_run kind compile name in
                  let d =
                    ( (name, key.Bench.engine),
                      (List.length r.Engine.solutions, Canon.digest r.Engine.solutions) )
                  in
                  if not (List.mem d !digests) then digests := d :: !digests;
                  r
                in
                Bench.run key run
                  [ ("solutions", solutions);
                    ("words_per_solution", words_per_solution) ])
              (Engine.compile_modes kind))
          [ Engine.Sequential; Engine.And_parallel; Engine.Or_parallel;
            Engine.Par_or ])
      Extras.seq_core_benchmarks
  in
  let digests = List.rev !digests in
  Format.printf "%a" Bench.pp rows;
  Bench.write "BENCH_seq_core.json" rows;
  pinned ~record "bench/seq_core_expected.txt"
    ~render:(fun () -> Extras.expected_of_digests digests)
    ~check:(fun expected -> Extras.check_seq_core ~expected digests)

(* Minor words per solution of the sequential engine in both modes,
   pinned in bench/seq_core_alloc_expected.txt: exact counts, so one run
   a row. *)
let alloc ~record =
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun compile ->
            Bench.count
              (seq_core_key "alloc" name Engine.Sequential compile)
              "words_per_solution"
              [| words_per_solution (fresh_run Engine.Sequential compile name) |])
          (Engine.compile_modes Engine.Sequential))
      Extras.seq_core_benchmarks
  in
  Format.printf "%a" Bench.pp rows;
  Bench.write "BENCH_alloc.json" rows;
  pinned ~record "bench/seq_core_alloc_expected.txt"
    ~render:(fun () -> Extras.alloc_expected_of_rows rows)
    ~check:(fun expected -> Extras.check_alloc ~expected rows)

(* Known hotspots, pinned: the top-ranked user predicate by exclusive
   cost on seq/c.  A benchmark absent from this table is printed but
   not asserted. *)
let profile_expected =
  [ ("queen1", [ "noatt/3" ]);
    ("queen2", [ "noatt/3" ]);
    ("puzzle", [ "sel/3" ]);
    ("members", [ "member/2" ]);
    ("maps", [ "color/1"; "next/2" ]);
    ("pderiv", [ "d/2" ]);
    ("matrix", [ "dot/3"; "mult/3" ]);
    ("hanoi", [ "app/3"; "hanoi/5" ]);
    ("takeuchi", [ "tak/4" ]);
    ("bt_cluster", [ "cluster/3" ]);
    ("quick_sort", [ "qsort/2"; "part/4" ]) ]

(* The profiler's hooks are a load and a branch when it is off, so
   seq/c with the profiler disabled must read within 1.15x of the
   seq_core rows in the current directory's BENCH_seq_core.json
   (geomean), timed the same way. *)
let profile_bound = 1.15

let profile () =
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun name ->
      let prof = Prof.create () in
      ignore (fresh_run ~prof Engine.Sequential true name);
      match Prof.top_hotspot prof with
      | None -> fail "%s: empty profile" name
      | Some row -> (
        Format.printf "%-12s hotspot %-16s %9d calls %12d cycles@." name
          row.Prof.r_name row.Prof.r_calls row.Prof.r_cycles;
        match List.assoc_opt name profile_expected with
        | Some allowed when not (List.mem row.Prof.r_name allowed) ->
          fail "%s: hotspot %s, expected one of [%s]" name row.Prof.r_name
            (String.concat "; " allowed)
        | Some _ | None -> ()))
    Extras.seq_core_benchmarks;
  let median ~profiled name =
    let prof () = if profiled then Prof.create () else Prof.disabled in
    (List.hd
       (Bench.run
          (seq_core_key "profile" name Engine.Sequential true)
          (fun () -> fresh_run ~prof:(prof ()) Engine.Sequential true name)
          []))
      .Bench.median
  in
  let geomean l = Stat.geomean (Array.of_list l) in
  let enabled =
    List.map
      (fun name ->
        let off = median ~profiled:false name
        and on = median ~profiled:true name in
        Format.printf "%-12s disabled %8.3f ms   enabled %8.3f ms   x%.3f@."
          name off on (on /. off);
        on /. off)
      [ "queen1"; "takeuchi"; "quick_sort" ]
  in
  Format.printf "profiler-enabled overhead geomean: x%.3f@." (geomean enabled);
  (match
     List.filter
       (fun r ->
         r.Bench.key.Bench.suite = "seq_core"
         && r.Bench.key.Bench.engine = "seq/c"
         && r.Bench.metric = "wall_ms")
       (Bench.read "BENCH_seq_core.json")
   with
   | [] ->
     Format.printf
       "no seq/c wall_ms rows in BENCH_seq_core.json; skipping the baseline \
        comparison@."
   | baseline ->
     let geo =
       geomean
         (List.map
            (fun r ->
              median ~profiled:false r.Bench.key.Bench.benchmark /. r.Bench.median)
            baseline)
     in
     Format.printf
       "disabled-profiler geomean vs BENCH_seq_core.json (seq/c): x%.3f \
        (bound %.2f)@."
       geo profile_bound;
     if geo > profile_bound then
       fail "disabled-profiler wall clock regressed x%.3f vs baseline" geo);
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* par_or and par_and: the domains engine                               *)
(* ------------------------------------------------------------------ *)

(* Runs each benchmark on Par_or in every cell [(domains, config label,
   config)], and counts per run whether its solution multiset equals the
   sequential engine's. *)
let par_sweep ~suite benchmarks cells counters =
  warn_domains 4;
  List.concat_map
    (fun name ->
      let b = Programs.find name in
      let size = b.Programs.default_size in
      let prepared = Engine.prepare_string (b.Programs.program size) in
      let goal = (Program.parse_query (b.Programs.query size)).Program.goal in
      let reference =
        Canon.multiset
          (Engine.run Engine.Sequential Config.default prepared goal)
            .Engine.solutions
      in
      let matches r =
        if Canon.multiset r.Engine.solutions = reference then 1. else 0.
      in
      List.concat_map
        (fun (domains, config, c) ->
          Bench.run
            { Bench.suite; benchmark = name; engine = "par"; domains; config }
            (fun () -> Engine.run Engine.Par_or c prepared goal)
            ([ ("solutions", solutions); ("matches_seq", matches) ] @ counters))
        cells)
    benchmarks

(* matches_seq is 1 in every run, or the solution set diverged. *)
let diverged rows =
  List.filter_map
    (fun r ->
      if r.Bench.metric <> "matches_seq" || (r.Bench.n = 1 && r.Bench.median = 1.)
      then None
      else
        Some
          (Printf.sprintf "%s@%d %s: solution set diverged from the sequential engine"
             r.Bench.key.Bench.benchmark r.Bench.key.Bench.domains
             r.Bench.key.Bench.config))
    rows

(* One 1-domain row per benchmark (no worker is ever hungry there, so
   grain cannot matter), then 2 and 4 domains crossed with the publish
   grain. *)
let par_or () =
  let cell domains grain =
    (domains, Printf.sprintf "grain=%d" grain,
     { Config.default with Config.agents = domains; grain })
  in
  let busy_frac r =
    match Metrics.utilization r.Engine.metrics with
    | [] -> 0.
    | us ->
      List.fold_left (fun acc u -> acc +. u.Metrics.u_busy_frac) 0. us
      /. float_of_int (List.length us)
  in
  let rows =
    par_sweep ~suite:"par_or"
      [ "queen1"; "queen2"; "puzzle"; "members"; "maps" ]
      (cell 1 1
       :: List.concat_map (fun d -> List.map (cell d) [ 1; 2; 4 ]) [ 2; 4 ])
      [ ("steals", stat (fun s -> s.Ace_machine.Stats.steals));
        ("busy_frac", busy_frac) ]
  in
  Format.printf "%a" Bench.pp rows;
  Bench.write "BENCH_par_or.json" rows;
  diverged rows

(* All optimizations with SPO off, so every independent '&' builds a
   parcall frame instead of being procrastinated away whenever the
   machine happens to be saturated; a sweep that builds no frame at all
   is itself a failure (the machinery silently not running). *)
let par_and () =
  let open Ace_machine.Stats in
  let rows =
    par_sweep ~suite:"par_and"
      [ "map2"; "matrix"; "hanoi"; "takeuchi"; "quick_sort" ]
      (List.map
         (fun d ->
           (d, "spo=off",
            { (Config.all_optimizations ~agents:d ()) with
              Config.par_and = true; spo = false }))
         [ 1; 2; 4 ])
      [ ("frames", stat (fun s -> s.frames));
        ("slots", stat (fun s -> s.slots));
        ("spo_hits", stat (fun s -> s.spo_hits));
        ("pdo_hits", stat (fun s -> s.pdo_hits));
        ("steals", stat (fun s -> s.steals)) ]
  in
  Format.printf "%a" Bench.pp rows;
  Bench.write "BENCH_par_and.json" rows;
  diverged rows
  @
  if List.for_all (fun r -> r.Bench.metric <> "frames" || r.Bench.median = 0.) rows
  then [ "the sweep never built a parcall frame" ]
  else []

(* ------------------------------------------------------------------ *)
(* tabling: the SLG answer table on every engine                        *)
(* ------------------------------------------------------------------ *)

let tabling_workloads =
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
    (* complete binary tree, heap numbering: node 1 is the root and the
       leaves are 2^depth .. 2^(depth+1)-1 *)
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
  (* a ring of n edges plus n/10 chords *)
  let path_cycle_edges n = n + (n / 10) in
  (* name, program, query, answers, seq clause-try bound *)
  [ ("path_cycle", path_cycle 120, "path(n0, X)", 120,
     Some (2 * (120 + path_cycle_edges 120)));
    ("tc_double", tc_double 60, "path(n0, X)", 60, None);
    (* every leaf is the same generation as the leftmost leaf *)
    ("same_gen", same_gen 6, "sg(n64, X)", 64, None) ]

(* Tabled results are answer sets, so every run's answer count is
   checked exactly.  Two clock-free work gates hold the answer-delta
   evaluation in place on seq: no region is re-passed (table_resumes 0:
   no consumer here sits under a control construct), and left-recursive
   reachability tries at most 2 x (answers + edges) clauses. *)
let tabling () =
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
  let open Ace_machine.Stats in
  let rows =
    List.concat_map
      (fun (bench, program, query, expected, tries_bound) ->
        let prepared = Engine.prepare_string program in
        let goal = (Program.parse_query query).Program.goal in
        List.concat_map
          (fun (kind, agents) ->
            let config =
              { (Config.all_optimizations ~agents ()) with Config.compile = true }
            in
            let key =
              { Bench.suite = "tabling"; benchmark = bench;
                engine = Engine.kind_to_string kind; domains = agents;
                config = "all" }
            in
            let rows =
              Bench.run key
                (fun () -> Engine.run kind config prepared goal)
                [ ("answers", solutions);
                  ("table_subgoals", stat (fun s -> s.table_subgoals));
                  ("table_answers", stat (fun s -> s.table_answers));
                  ("answer_hits", stat (fun s -> s.table_answer_hits));
                  ("variant_hits", stat (fun s -> s.table_variant_hits));
                  ("suspends", stat (fun s -> s.table_suspends));
                  ("resumes", stat (fun s -> s.table_resumes));
                  ("clause_tries", stat (fun s -> s.clause_tries)) ]
            in
            (* a counter's row is one reading exactly when every run
               read the same *)
            let every metric want ok =
              let r = List.find (fun r -> r.Bench.metric = metric) rows in
              if not (r.Bench.n = 1 && ok r.Bench.median) then
                fail "%s on %s@%d: %s %g (n %d), expected %s in every run" bench
                  (Engine.kind_to_string kind) agents metric r.Bench.median
                  r.Bench.n want
            in
            every "answers" (string_of_int expected) (fun a ->
                a = float_of_int expected);
            if kind = Engine.Sequential then begin
              every "resumes" "0" (fun r -> r = 0.);
              Option.iter
                (fun bound ->
                  every "clause_tries" (Printf.sprintf "<= %d" bound) (fun t ->
                      t <= float_of_int bound))
                tries_bound
            end;
            rows)
          [ (Engine.Sequential, 1); (Engine.And_parallel, 4);
            (Engine.Or_parallel, 4); (Engine.Par_or, 2); (Engine.Par_or, 4) ])
      tabling_workloads
  in
  Format.printf "%a" Bench.pp rows;
  Bench.write "BENCH_tabling.json" rows;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* serve: the query server over a Unix socket                           *)
(* ------------------------------------------------------------------ *)

let serve_program =
  let b = Buffer.create 4096 in
  let n = 40 in
  for i = 0 to n - 2 do
    Printf.bprintf b "edge(n%d, n%d).\n" i (i + 1);
    if i mod 8 = 0 && i + 9 < n then
      Printf.bprintf b "edge(n%d, n%d).\n" i (i + 9)
  done;
  Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
  Buffer.add_string b "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  (* unbounded backtracking, zero solutions: the deadline row's query *)
  Buffer.add_string b "gen(z).\ngen(s(N)) :- gen(N).\n";
  Buffer.add_string b "spin :- gen(N), never(N).\nnever(none).\n";
  Buffer.contents b

let serve_goal = "path(n0, X)"

(* One request/response round trip on an open connection. *)
let serve_roundtrip ic oc req =
  output_string oc (Json.to_string req);
  output_char oc '\n';
  flush oc;
  match Json.parse (input_line ic) with
  | Ok j -> j
  | Error m -> failwith ("serve bench: bad response json: " ^ m)

let serve_connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* One client: one connection (one session), queries back to back;
   each query's latency (ms) and answer count (-1 for a reply without
   one). *)
let serve_queries = 25

let serve_client addr =
  let fd, ic, oc = serve_connect addr in
  let replies =
    List.init serve_queries (fun i ->
        let t0 = Stat.now_ns () in
        let j =
          serve_roundtrip ic oc
            (Json.Obj
               [ ("op", Json.Str "query"); ("id", Json.int i);
                 ("goal", Json.Str serve_goal) ])
        in
        ( Stat.ms_of_ns (Stat.now_ns () - t0),
          match Json.member "count" j with Some (Json.Num c) -> c | _ -> -1. ))
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  replies

(* Each client mix's rows are quantiles over its one stream of
   concurrent queries, every latency scaled to full host speed by the
   slower calibration reading around the mix, and every query must
   answer in full; a last row asserts that a query that never
   terminates comes back cancelled within 2,000 ms of its 80 ms
   deadline. *)
let serve () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ace_bench_serve_%d.sock" (Unix.getpid ()))
  in
  let addr = Unix.ADDR_UNIX sock in
  let prepared = Engine.prepare_string serve_program in
  let expected =
    List.length
      (Engine.run Engine.Sequential Config.default prepared
         (Program.parse_query serve_goal).Program.goal)
        .Engine.solutions
  in
  Format.printf "serve: %d solutions per query, socket %s@." expected sock;
  let died = Atomic.make false in
  let workers = 4 in
  let mix (nclients, kind, agents) =
    let config =
      { (Config.all_optimizations ~agents ()) with Config.compile = true }
    in
    let srv =
      Ace_server.Server.create ~workers ~engine:kind ~config ~listen:addr prepared
    in
    let results = Array.make nclients [] in
    let cal0 = Stat.calibrate_ns () in
    let threads =
      List.init nclients (fun i ->
          Thread.create
            (fun () ->
              try results.(i) <- serve_client addr
              with e ->
                Format.eprintf "serve: client died: %s@." (Printexc.to_string e);
                Atomic.set died true)
            ())
    in
    List.iter Thread.join threads;
    let cal = Stat.ms_of_ns (max cal0 (Stat.calibrate_ns ())) in
    Ace_server.Server.drain srv;
    Ace_server.Server.wait srv;
    let replies = List.concat (Array.to_list results) in
    let lats =
      Array.of_list
        (List.map (fun (ms, _) -> Stat.at_full_speed { Stat.ms; cal; e = 1.0 }) replies)
    in
    let key =
      { Bench.suite = "serve"; benchmark = serve_goal;
        engine = Engine.kind_to_string kind ^ (if kind = Engine.Sequential then "/c" else "");
        domains = agents;
        config = Printf.sprintf "clients=%d,workers=%d" nclients workers }
    in
    if replies = [] then []
    else
      [ Bench.timed key "latency_ms" lats;
        Bench.count key "answers" (Array.of_list (List.map snd replies)) ]
  in
  let rows =
    List.concat_map mix
      (* the CI host may be single-core: modest domain counts only *)
      [ (1, Engine.Sequential, 1); (2, Engine.Sequential, 1);
        (4, Engine.Sequential, 1); (2, Engine.Par_or, 2) ]
  in
  let deadline_ms = 80 and overshoot_bound_ms = 2000.0 in
  let srv =
    Ace_server.Server.create ~workers:2 ~engine:Engine.Sequential
      ~config:{ Config.default with Config.compile = true }
      ~listen:addr prepared
  in
  let fd, ic, oc = serve_connect addr in
  let t0 = Stat.now_ns () in
  let j =
    serve_roundtrip ic oc
      (Json.Obj
         [ ("op", Json.Str "query"); ("id", Json.int 1);
           ("goal", Json.Str "spin"); ("deadline_ms", Json.int deadline_ms) ])
  in
  let overshoot_ms = Stat.ms_of_ns (Stat.now_ns () - t0) -. float_of_int deadline_ms in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Ace_server.Server.drain srv;
  Ace_server.Server.wait srv;
  let cancelled =
    match Json.member "cancelled" j with Some (Json.Str s) -> s | _ -> ""
  in
  let rows =
    rows
    @ [ Bench.count
          { Bench.suite = "serve"; benchmark = "spin"; engine = "seq/c";
            domains = 1; config = Printf.sprintf "deadline_ms=%d" deadline_ms }
          "overshoot_ms" [| overshoot_ms |] ]
  in
  Format.printf "%a" Bench.pp rows;
  Bench.write "BENCH_serve.json" rows;
  List.filter_map
    (fun r ->
      if r.Bench.metric <> "answers" || (r.Bench.n = 1 && r.Bench.median = float_of_int expected)
      then None
      else
        Some
          (Printf.sprintf "%s: answers %g (n %d), expected %d in every query"
             r.Bench.key.Bench.config r.Bench.median r.Bench.n expected))
    rows
  @ (if Atomic.get died then [ "a client died" ] else [])
  @
  if cancelled <> "deadline" || overshoot_ms > overshoot_bound_ms then
    [ Printf.sprintf
        "spin with a %d ms deadline: cancelled=%S, overshoot %.1f ms (bound %.0f)"
        deadline_ms cancelled overshoot_ms overshoot_bound_ms ]
  else []

let () =
  let failures =
    match List.tl (Array.to_list Sys.argv) with
    | [ "seq_core" ] -> seq_core ~record:false
    | [ "seq_core"; "record" ] -> seq_core ~record:true
    | [ "alloc" ] -> alloc ~record:false
    | [ "alloc"; "record" ] -> alloc ~record:true
    | [ "profile" ] -> profile ()
    | [ "par_or" ] -> par_or ()
    | [ "par_and" ] -> par_and ()
    | [ "tabling" ] -> tabling ()
    | [ "serve" ] -> serve ()
    | _ ->
      prerr_endline
        "usage: main.exe (seq_core | alloc) [record] | profile | par_or | \
         par_and | tabling | serve";
      exit 2
  in
  let suite = Sys.argv.(1) in
  List.iter (fun f -> Format.eprintf "%s: %s@." suite f) failures;
  if failures <> [] then exit 1;
  Format.printf "%s: every gate passed@." suite
