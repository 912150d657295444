(* The evaluation claims of the paper that are not a numbered table or
   figure:

   X1 — parallel overhead: the unoptimized &ACE engine runs 10-25% slower
   than sequential SICStus on one processor; the optimizations bring the
   overhead under 5% "for many programs" (§1, §2.3, §5).

   X2 — memory: LPCO cuts control-stack usage by about half on
   flattening-friendly programs (§3.1). *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Programs = Ace_benchmarks.Programs
module Stats = Ace_machine.Stats
module Metrics = Ace_obs.Metrics
module Json = Ace_obs.Json

type overhead_row = {
  o_label : string;
  seq_time : int;
  unopt_time : int; (* and-engine, 1 agent, no optimizations *)
  opt_time : int;   (* and-engine, 1 agent, all optimizations *)
  gc_time : int;    (* all optimizations + granularity control *)
  unopt_overhead : float; (* percent over sequential *)
  opt_overhead : float;
  gc_overhead : float;
}

(* Host shape recorded in every benchmark JSON row: wall-clock numbers
   are meaningless without knowing how many cores the recording host
   had.  [host_cores] counts physical processors from /proc/cpuinfo
   where available and falls back to the runtime's recommendation. *)
let recommended_domains () = Domain.recommended_domain_count ()

let host_cores () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n > 0 then !n else recommended_domains ()
  with Sys_error _ -> recommended_domains ()

let host_json () =
  Json.Obj
    [ ("cores", Json.int (host_cores ()));
      ("recommended_domains", Json.int (recommended_domains ()));
      ("ocaml", Json.Str Sys.ocaml_version) ]

(* Emitted by the bench subcommands before a hardware sweep whose domain
   counts exceed what the host can actually run in parallel. *)
let warn_domains ~requested =
  let cores = host_cores () in
  if requested > cores then
    Format.eprintf
      "warning: sweep requests %d domains but this host has %d core(s); \
       speedups above %d domains measure scheduling, not parallelism@."
      requested cores cores

let percent_over base v =
  if base = 0 then 0.0 else 100.0 *. float_of_int (v - base) /. float_of_int base

(* The deterministic and-parallel benchmarks, where the sequential engine
   computes the identical result. *)
let overhead_benchmarks =
  [ "map2"; "occur"; "matrix"; "pderiv"; "annotator"; "takeuchi"; "hanoi";
    "bt_cluster"; "quick_sort" ]

let run_overhead ?(benchmarks = overhead_benchmarks) ?size_of () =
  List.map
    (fun name ->
      let b = Programs.find name in
      let size =
        match size_of with Some f -> f b | None -> b.Programs.default_size
      in
      let program = b.Programs.program size and query = b.Programs.query size in
      let seq =
        Engine.solve_program Engine.Sequential Config.default ~program ~query
      in
      let unopt =
        Engine.solve_program Engine.And_parallel
          { Config.default with agents = 1 }
          ~program ~query
      in
      let opt =
        Engine.solve_program Engine.And_parallel
          (Config.all_optimizations ~agents:1 ())
          ~program ~query
      in
      let gc =
        Engine.solve_program Engine.And_parallel
          { (Config.all_optimizations ~agents:1 ()) with Config.seq_threshold = 24 }
          ~program ~query
      in
      let cycles r = Option.get r.Engine.cycles in
      let seq_time = cycles seq in
      {
        o_label = name;
        seq_time;
        unopt_time = cycles unopt;
        opt_time = cycles opt;
        gc_time = cycles gc;
        unopt_overhead = percent_over seq_time (cycles unopt);
        opt_overhead = percent_over seq_time (cycles opt);
        gc_overhead = percent_over seq_time (cycles gc);
      })
    benchmarks

let pp_overhead ppf rows =
  Format.fprintf ppf
    "== X1: parallel overhead on one processor (vs sequential engine) ==@,";
  Format.fprintf ppf "%-12s %10s %12s %12s %12s %10s %9s %9s@," "benchmark"
    "seq" "and(unopt)" "and(opt)" "and(opt+gc)" "ovh-unopt" "ovh-opt" "ovh-gc";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %10d %12d %12d %12d %9.1f%% %8.1f%% %8.1f%%@,"
        r.o_label r.seq_time r.unopt_time r.opt_time r.gc_time r.unopt_overhead
        r.opt_overhead r.gc_overhead)
    rows;
  let avg f =
    match rows with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc r -> acc +. f r) 0.0 rows
      /. float_of_int (List.length rows)
  in
  Format.fprintf ppf "%-12s %10s %12s %12s %12s %9.1f%% %8.1f%% %8.1f%%@,@,"
    "average" "" "" "" ""
    (avg (fun r -> r.unopt_overhead))
    (avg (fun r -> r.opt_overhead))
    (avg (fun r -> r.gc_overhead))

type memory_row = {
  m_label : string;
  unopt_words : int;
  opt_words : int;
  saving : float; (* percent *)
}

(* X2: control-stack words allocated with and without LPCO. *)
let run_memory ?(benchmarks = [ "map2"; "occur"; "bt_cluster" ]) ?(agents = 5) () =
  List.map
    (fun name ->
      let b = Programs.find name in
      let size = b.Programs.default_size in
      let program = b.Programs.program size and query = b.Programs.query size in
      let run config =
        Engine.solve_program Engine.And_parallel config ~program ~query
      in
      let unopt = run { Config.default with agents } in
      let opt = run { Config.default with agents; lpco = true } in
      let uw = unopt.Engine.stats.Stats.stack_words in
      let ow = opt.Engine.stats.Stats.stack_words in
      {
        m_label = name;
        unopt_words = uw;
        opt_words = ow;
        saving = (if uw = 0 then 0.0 else 100.0 *. float_of_int (uw - ow) /. float_of_int uw);
      })
    benchmarks

(* ------------------------------------------------------------------ *)
(* Hardware or-parallelism: wall-clock runs on OCaml domains            *)
(* ------------------------------------------------------------------ *)

type par_or_row = {
  p_label : string;
  p_domains : int;
  p_grain : int;       (* publish only nodes with >= this many alternatives *)
  p_wall_ms : float;   (* best of [repeat] runs *)
  p_solutions : int;
  p_speedup : float;   (* vs the 1-domain row of the same benchmark *)
  p_matches_seq : bool; (* same solution set as the sequential engine *)
  p_steals : int;      (* total successful steals, best run *)
  p_busy_frac : float; (* mean per-domain busy fraction, best run *)
  p_metrics : Metrics.t; (* per-domain shards of the best run *)
}

(* Or-parallel benchmarks where the sequential engine computes the
   identical solution set. *)
let par_or_benchmarks = [ "queen1"; "queen2"; "puzzle"; "members"; "maps" ]

let canonical_set = Ace_check.Canon.multiset

(* Runs each benchmark on the hardware engine across [domains] × [grains],
   comparing every run's solution set against the sequential engine and
   reporting the best wall time of [repeat] runs (wall-clock measurements
   on a shared host are noisy; the minimum is the standard robust
   estimate).  With one domain no worker is ever hungry, so grain cannot
   matter there: the sweep measures one 1-domain baseline per benchmark and
   crosses grains only with the multi-domain counts. *)
let run_par_or ?(benchmarks = par_or_benchmarks) ?(domains = [ 1; 2; 4 ])
    ?(grains = [ 1; 2; 4 ]) ?(repeat = 3) ?size_of () =
  List.concat_map
    (fun name ->
      let b = Programs.find name in
      let size =
        match size_of with Some f -> f b | None -> b.Programs.default_size
      in
      let program = b.Programs.program size and query = b.Programs.query size in
      let seq =
        Engine.solve_program Engine.Sequential Config.default ~program ~query
      in
      let reference = canonical_set seq.Engine.solutions in
      let base_ms = ref 0.0 in
      let cell agents grain =
        let config = { Config.default with Config.agents; grain } in
        let runs =
          List.init (max 1 repeat) (fun _ ->
              Engine.solve_program Engine.Par_or config ~program ~query)
        in
        let best =
          List.fold_left
            (fun acc r ->
              if r.Engine.wall_ns < acc.Engine.wall_ns then r else acc)
            (List.hd runs) (List.tl runs)
        in
        let wall_ms = float_of_int best.Engine.wall_ns /. 1e6 in
        if agents = 1 then base_ms := wall_ms;
        let util = Metrics.utilization best.Engine.metrics in
        let busy_frac =
          match util with
          | [] -> 0.0
          | us ->
            List.fold_left (fun acc u -> acc +. u.Metrics.u_busy_frac) 0.0 us
            /. float_of_int (List.length us)
        in
        {
          p_label = name;
          p_domains = agents;
          p_grain = grain;
          p_wall_ms = wall_ms;
          p_solutions = List.length best.Engine.solutions;
          p_speedup = (if wall_ms > 0.0 then !base_ms /. wall_ms else 0.0);
          p_matches_seq =
            List.for_all
              (fun r -> canonical_set r.Engine.solutions = reference)
              runs;
          p_steals = best.Engine.stats.Stats.steals;
          p_busy_frac = busy_frac;
          p_metrics = best.Engine.metrics;
        }
      in
      let multi = List.filter (fun d -> d > 1) domains in
      (* bind the baseline first: it must run before the multi-domain
         cells that divide by its time *)
      let base = cell 1 1 in
      base :: List.concat_map (fun agents -> List.map (cell agents) grains) multi)
    benchmarks

let pp_par_or ppf rows =
  Format.fprintf ppf
    "== hardware or-parallelism: wall-clock on OCaml domains ==@,";
  Format.fprintf ppf "%-12s %8s %6s %12s %10s %9s %8s %7s %6s@," "benchmark"
    "domains" "grain" "wall-ms" "solutions" "speedup" "matches" "steals"
    "busy%";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %8d %6d %12.2f %10d %8.2fx %8s %7d %5.0f%%@,"
        r.p_label r.p_domains r.p_grain r.p_wall_ms r.p_solutions r.p_speedup
        (if r.p_matches_seq then "yes" else "NO")
        r.p_steals (100.0 *. r.p_busy_frac))
    rows;
  Format.fprintf ppf "@,"

(* JSON for BENCH_par_or.json, schema {host: {...}, rows: [...]}; each row
   carries the per-domain busy/idle/steal breakdown so a flat speedup on a
   1-core host shows up as idle fractions in data, not just a README
   caveat. *)
let par_or_json rows =
  let per_domain m =
    Json.List
      (List.map
         (fun u ->
           Json.Obj
             [ ("domain", Json.int u.Metrics.u_dom);
               ("busy_ns", Json.int u.Metrics.u_busy_ns);
               ("idle_ns", Json.int u.Metrics.u_idle_ns);
               ("busy_frac", Json.Num u.Metrics.u_busy_frac);
               ("tasks", Json.int u.Metrics.u_tasks);
               ("steals", Json.int u.Metrics.u_steals);
               ("copies", Json.int u.Metrics.u_copies) ])
         (Metrics.utilization m))
  in
  let row r =
    Json.Obj
      [ ("benchmark", Json.Str r.p_label);
        ("domains", Json.int r.p_domains);
        ("grain", Json.int r.p_grain);
        ("wall_ms", Json.Num r.p_wall_ms);
        ("solutions", Json.int r.p_solutions);
        ("speedup", Json.Num r.p_speedup);
        ("matches_seq", Json.Bool r.p_matches_seq);
        ("steals", Json.int r.p_steals);
        ("busy_frac", Json.Num r.p_busy_frac);
        ("host_cores", Json.int (host_cores ()));
        ("recommended_domains", Json.int (recommended_domains ()));
        ("per_domain", per_domain r.p_metrics) ]
  in
  Json.to_string
    (Json.Obj
       [ ("host", host_json ());
         ("rows", Json.List (List.map row rows)) ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Sequential-core benchmark: wall clock of the engine hot path         *)
(* ------------------------------------------------------------------ *)

(* One row per benchmark × engine: wall-clock time of a whole
   consult+solve run, plus a digest of the alpha-canonical solution set so
   a refactor of the term representation can be checked for semantic
   drift against seed-recorded digests. *)
type seq_core_row = {
  c_label : string;
  c_engine : string;    (* "seq" | "and" | "or" | "par" *)
  c_wall_ms : float;    (* best of the repeated runs *)
  c_solutions : int;
  c_digest : string;    (* MD5 of the sorted canonical solution set *)
  c_stats : Stats.t;    (* counters of the best run *)
}

(* ------------------------------------------------------------------ *)
(* Hardware and-parallelism: parcall frames on OCaml domains            *)
(* ------------------------------------------------------------------ *)

type par_and_row = {
  a_label : string;
  a_domains : int;
  a_wall_ms : float;    (* best of [repeat] runs *)
  a_solutions : int;
  a_speedup : float;    (* vs the 1-domain row of the same benchmark *)
  a_matches_seq : bool; (* same solution multiset as the sequential engine *)
  a_frames : int;       (* parcall frames actually built, best run *)
  a_slots : int;
  a_spo_hits : int;     (* frames procrastinated away *)
  a_pdo_hits : int;     (* contiguous-slot claims *)
  a_steals : int;       (* stolen tasks (or-tasks and slots), best run *)
  a_metrics : Metrics.t;
}

(* And-parallel benchmarks with deterministic solution sets. *)
let par_and_benchmarks = [ "map2"; "matrix"; "hanoi"; "takeuchi"; "quick_sort" ]

(* Runs each benchmark on the hardware engine with [par_and] across
   [domains], comparing every run's solution multiset against the
   sequential engine and reporting the best wall time of [repeat] runs.
   SPO is off by default here: a benchmark sweep wants the parcall-frame
   machinery exercised on every '&', not procrastinated away whenever the
   machine happens to be saturated. *)
let run_par_and ?(benchmarks = par_and_benchmarks) ?(domains = [ 1; 2; 4 ])
    ?(repeat = 3) ?(spo = false) ?size_of () =
  List.concat_map
    (fun name ->
      let b = Programs.find name in
      let size =
        match size_of with Some f -> f b | None -> b.Programs.default_size
      in
      let program = b.Programs.program size and query = b.Programs.query size in
      let seq =
        Engine.solve_program Engine.Sequential Config.default ~program ~query
      in
      let reference = canonical_set seq.Engine.solutions in
      let base_ms = ref 0.0 in
      let cell agents =
        let config =
          { (Config.all_optimizations ~agents ()) with
            Config.par_and = true; spo }
        in
        let runs =
          List.init (max 1 repeat) (fun _ ->
              Engine.solve_program Engine.Par_or config ~program ~query)
        in
        let best =
          List.fold_left
            (fun acc r ->
              if r.Engine.wall_ns < acc.Engine.wall_ns then r else acc)
            (List.hd runs) (List.tl runs)
        in
        let wall_ms = float_of_int best.Engine.wall_ns /. 1e6 in
        if agents = 1 then base_ms := wall_ms;
        {
          a_label = name;
          a_domains = agents;
          a_wall_ms = wall_ms;
          a_solutions = List.length best.Engine.solutions;
          a_speedup = (if wall_ms > 0.0 then !base_ms /. wall_ms else 0.0);
          a_matches_seq =
            List.for_all
              (fun r -> canonical_set r.Engine.solutions = reference)
              runs;
          a_frames = best.Engine.stats.Stats.frames;
          a_slots = best.Engine.stats.Stats.slots;
          a_spo_hits = best.Engine.stats.Stats.spo_hits;
          a_pdo_hits = best.Engine.stats.Stats.pdo_hits;
          a_steals = best.Engine.stats.Stats.steals;
          a_metrics = best.Engine.metrics;
        }
      in
      (* 1-domain baseline first: the multi-domain cells divide by it *)
      List.map cell (1 :: List.filter (fun d -> d > 1) domains))
    benchmarks

let pp_par_and ppf rows =
  Format.fprintf ppf
    "== hardware and-parallelism: parcall frames on OCaml domains ==@,";
  Format.fprintf ppf "%-12s %8s %12s %10s %9s %8s %7s %6s %5s %5s@,"
    "benchmark" "domains" "wall-ms" "solutions" "speedup" "matches" "frames"
    "slots" "spo" "pdo";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %8d %12.2f %10d %8.2fx %8s %7d %6d %5d %5d@,"
        r.a_label r.a_domains r.a_wall_ms r.a_solutions r.a_speedup
        (if r.a_matches_seq then "yes" else "NO")
        r.a_frames r.a_slots r.a_spo_hits r.a_pdo_hits)
    rows;
  Format.fprintf ppf "@,"

let par_and_json rows =
  let row r =
    Json.Obj
      [ ("benchmark", Json.Str r.a_label);
        ("domains", Json.int r.a_domains);
        ("wall_ms", Json.Num r.a_wall_ms);
        ("solutions", Json.int r.a_solutions);
        ("speedup", Json.Num r.a_speedup);
        ("matches_seq", Json.Bool r.a_matches_seq);
        ("frames", Json.int r.a_frames);
        ("slots", Json.int r.a_slots);
        ("spo_hits", Json.int r.a_spo_hits);
        ("pdo_hits", Json.int r.a_pdo_hits);
        ("steals", Json.int r.a_steals);
        ("host_cores", Json.int (host_cores ()));
        ("recommended_domains", Json.int (recommended_domains ())) ]
  in
  Json.to_string
    (Json.Obj
       [ ("host", host_json ());
         ("rows", Json.List (List.map row rows)) ])
  ^ "\n"

(* The par-or sweep's search benchmarks plus the structure- and
   arithmetic-heavy workloads (symbolic differentiation, matrix
   arithmetic, recursion-bound programs, sorting) that exercise the
   clause compiler's get/unify and put paths. *)
let seq_core_benchmarks =
  par_or_benchmarks
  @ [ "pderiv"; "matrix"; "hanoi"; "takeuchi"; "bt_cluster"; "quick_sort" ]

let seq_core_engines =
  [ Engine.Sequential; Engine.And_parallel; Engine.Or_parallel; Engine.Par_or ]

let canonical_digest = Ace_check.Canon.digest

(* Runs every benchmark on every engine at one agent/domain, in each of
   the engine's execution modes (the sequential engine interpreted, then
   on the compiled clause code with its tag suffixed "/c"), reporting
   the best wall time of [repeat] runs.  All four engines execute the
   same programs, so the rows double as a cross-engine semantic check,
   and the seq/seq/c pair as a compiler check. *)
let run_seq_core ?(benchmarks = seq_core_benchmarks)
    ?(engines = seq_core_engines) ?(repeat = 5) ?size_of () =
  List.concat_map
    (fun name ->
      let b = Programs.find name in
      let size =
        match size_of with Some f -> f b | None -> b.Programs.default_size
      in
      let program = b.Programs.program size and query = b.Programs.query size in
      List.concat_map
        (fun kind ->
          List.map
            (fun compile ->
              let config =
                { Config.default with Config.agents = 1; compile }
              in
              let measure () =
                (* program loading (parse, consult, freeze) stays outside
                   the timed region: these rows measure the resolution
                   hot path, and the load cost is identical across
                   engines and execution modes.  A fresh database per run
                   keeps runs independent. *)
                let p = Ace_lang.Program.consult_string program in
                let q = Ace_lang.Program.parse_query query in
                let db = Ace_lang.Program.db p in
                Ace_lang.Database.freeze db;
                (* collect the previous run's garbage so each timed run
                   starts from the same heap state *)
                Gc.full_major ();
                let t0 = Unix.gettimeofday () in
                let r = Engine.solve kind config db q.Ace_lang.Program.goal in
                let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
                (ms, r)
              in
              let runs = List.init (max 1 repeat) (fun _ -> measure ()) in
              let best_ms, best =
                List.fold_left
                  (fun (am, ar) (m, r) -> if m < am then (m, r) else (am, ar))
                  (List.hd runs) (List.tl runs)
              in
              {
                c_label = name;
                c_engine =
                  Engine.kind_to_string kind ^ (if compile then "/c" else "");
                c_wall_ms = best_ms;
                c_solutions = List.length best.Engine.solutions;
                c_digest = canonical_digest best.Engine.solutions;
                c_stats = best.Engine.stats;
              })
            (Engine.compile_modes kind))
        engines)
    benchmarks

(* Geometric-mean wall-clock speedup of the compiled rows over their
   interpreted counterparts, per engine tag ("seq" -> seq vs seq/c). *)
let seq_core_speedups rows =
  let tags =
    List.filter_map
      (fun r ->
        match String.index_opt r.c_engine '/' with
        | Some _ -> None
        | None -> Some r.c_engine)
      rows
    |> List.sort_uniq compare
  in
  List.filter_map
    (fun tag ->
      let ratios =
        List.filter_map
          (fun r ->
            if r.c_engine <> tag then None
            else
              List.find_opt
                (fun r' ->
                  r'.c_label = r.c_label && r'.c_engine = tag ^ "/c")
                rows
              |> Option.map (fun r' ->
                     if r'.c_wall_ms > 0.0 then r.c_wall_ms /. r'.c_wall_ms
                     else 1.0))
          rows
      in
      match ratios with
      | [] -> None
      | _ ->
        let n = float_of_int (List.length ratios) in
        let g =
          exp (List.fold_left (fun acc x -> acc +. log x) 0.0 ratios /. n)
        in
        Some (tag, g))
    tags

(* GC minor words allocated per solution (the engine facade samples the
   deltas into the row's stats). *)
let words_per_solution r =
  float_of_int r.c_stats.Stats.minor_words
  /. float_of_int (max 1 r.c_solutions)

(* For a compiled row, the interpreted counterpart's minor-words/solution
   divided by the compiled row's: > 1 means the compiled path allocates
   less.  [None] for interpreted rows and unpaired tags. *)
let alloc_ratio rows r =
  match String.index_opt r.c_engine '/' with
  | None -> None
  | Some i ->
    let tag = String.sub r.c_engine 0 i in
    List.find_opt
      (fun r' -> r'.c_label = r.c_label && r'.c_engine = tag)
      rows
    |> Option.map (fun r' ->
           (* a zero-allocation compiled row divides by one word so the
              ratio stays finite while still reporting the full win *)
           words_per_solution r' /. Float.max (words_per_solution r) 1.0)

let pp_seq_core ppf rows =
  Format.fprintf ppf "== sequential-core hot path: wall-clock per run ==@,";
  Format.fprintf ppf "%-12s %6s %12s %10s %12s %8s  %s@," "benchmark" "engine"
    "wall-ms" "solutions" "wds/sol" "alloc-x" "digest";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %6s %12.2f %10d %12.1f %8s  %s@," r.c_label
        r.c_engine r.c_wall_ms r.c_solutions (words_per_solution r)
        (match alloc_ratio rows r with
        | Some x -> Printf.sprintf "%.2fx" x
        | None -> "-")
        r.c_digest)
    rows;
  List.iter
    (fun (tag, g) ->
      Format.fprintf ppf "compiled speedup geomean (%s): %.2fx@," tag g)
    (seq_core_speedups rows);
  Format.fprintf ppf "@,"

let seq_core_json rows =
  let row r =
    Json.Obj
      ([ ("benchmark", Json.Str r.c_label);
         ("engine", Json.Str r.c_engine);
         ("wall_ms", Json.Num r.c_wall_ms);
         ("solutions", Json.int r.c_solutions);
         ("digest", Json.Str r.c_digest);
         ("words_per_solution", Json.Num (words_per_solution r)) ]
      @ (match alloc_ratio rows r with
        | Some x -> [ ("alloc_ratio_vs_interpreted", Json.Num x) ]
        | None -> [])
      @ [ ("host_cores", Json.int (host_cores ()));
          ("recommended_domains", Json.int (recommended_domains ()));
          ("stats", Metrics.stats_to_json r.c_stats) ])
  in
  let speedups =
    Json.Obj
      (List.map (fun (tag, g) -> (tag, Json.Num g)) (seq_core_speedups rows))
  in
  Json.to_string
    (Json.Obj
       [ ("host", host_json ());
         ("compiled_speedup_geomean", speedups);
         ("rows", Json.List (List.map row rows)) ])
  ^ "\n"

(* Expected-digest files: one "benchmark engine solutions digest" line per
   row (seed-recorded; see bench/seq_core_expected.txt). *)
let parse_expected text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ bench; engine; sols; digest ] ->
           Some ((bench, engine), (int_of_string sols, digest))
         | _ -> None)

let expected_of_rows rows =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %d %s\n" r.c_label r.c_engine r.c_solutions
           r.c_digest))
    rows;
  Buffer.contents buf

(* Checks rows against a seed-recorded expected file; returns the list of
   divergences (empty = all solution sets match the seed). *)
let check_seq_core ~expected rows =
  let table = parse_expected expected in
  List.filter_map
    (fun r ->
      match List.assoc_opt (r.c_label, r.c_engine) table with
      | None -> None (* benchmark added after the seed recording *)
      | Some (sols, digest) ->
        if sols = r.c_solutions && String.equal digest r.c_digest then None
        else
          Some
            (Printf.sprintf
               "%s/%s: expected %d solutions (digest %s), got %d (digest %s)"
               r.c_label r.c_engine sols digest r.c_solutions r.c_digest))
    rows

(* ------------------------------------------------------------------ *)
(* Allocation-regression gate                                          *)
(* ------------------------------------------------------------------ *)

(* Pinned-baseline file: one "benchmark engine words_per_solution" line
   per row (see bench/seq_core_alloc_expected.txt).  Allocation per
   solution is deterministic up to small GC-sampling noise, so a wide
   relative tolerance suffices and wall-clock noise never enters. *)
let alloc_expected_of_rows rows =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %.1f\n" r.c_label r.c_engine
           (words_per_solution r)))
    rows;
  Buffer.contents buf

let parse_alloc_expected text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ bench; engine; words ] ->
           Some ((bench, engine), float_of_string words)
         | _ -> None)

(* Checks rows against the pinned baselines; a row regresses when its
   minor-words/solution exceeds the pinned value by more than
   [tolerance] (relative, default 10%).  Rows without a pinned value
   pass (benchmark added after recording).  Returns the regressions. *)
let check_alloc ?(tolerance = 0.10) ~expected rows =
  let table = parse_alloc_expected expected in
  List.filter_map
    (fun r ->
      match List.assoc_opt (r.c_label, r.c_engine) table with
      | None -> None
      | Some pinned ->
        let current = words_per_solution r in
        (* an extra word of slack keeps near-zero baselines meaningful *)
        if current <= (pinned *. (1.0 +. tolerance)) +. 1.0 then None
        else
          Some
            (Printf.sprintf
               "%s/%s: %.1f minor words/solution, pinned %.1f (+%.0f%% > %.0f%% \
                tolerance)"
               r.c_label r.c_engine current pinned
               ((current /. Float.max pinned 1e-9 -. 1.0) *. 100.0)
               (tolerance *. 100.0)))
    rows

let pp_memory ppf rows =
  Format.fprintf ppf
    "== X2: control-stack allocation with/without LPCO (words) ==@,";
  Format.fprintf ppf "%-12s %12s %12s %10s@," "benchmark" "no LPCO" "LPCO" "saved";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %12d %12d %9.1f%%@," r.m_label r.unopt_words
        r.opt_words r.saving)
    rows;
  Format.fprintf ppf "@,"
