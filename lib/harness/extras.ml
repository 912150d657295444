(* The evaluation claims of the paper that are not a numbered table or
   figure:

   X1 — parallel overhead: the unoptimized &ACE engine runs 10-25% slower
   than sequential SICStus on one processor; the optimizations bring the
   overhead under 5% "for many programs" (§1, §2.3, §5).

   X2 — memory: LPCO cuts control-stack usage by about half on
   flattening-friendly programs (§3.1).

   Also the seq_core benchmark list and the bench tool's two gates that
   compare a run with a pinned file. *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Programs = Ace_benchmarks.Programs
module Stats = Ace_machine.Stats

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

(* The par-or sweep's search benchmarks plus the structure- and
   arithmetic-heavy workloads (symbolic differentiation, matrix
   arithmetic, recursion-bound programs, sorting) that exercise the
   clause compiler's get/unify and put paths. *)
let seq_core_benchmarks =
  [ "queen1"; "queen2"; "puzzle"; "members"; "maps"; "pderiv"; "matrix";
    "hanoi"; "takeuchi"; "bt_cluster"; "quick_sort" ]

(* ------------------------------------------------------------------ *)
(* Pinned files: the seq_core digests and the allocation baselines      *)
(* ------------------------------------------------------------------ *)

(* The non-blank lines of a pinned file, split into fields.  Every line
   must name a row that ran: a pinned row that is not run, or a line
   that does not parse (a truncated file), fails the gate like drift. *)
let check_pinned text check =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> List.concat_map (fun line ->
         match check (String.split_on_char ' ' line) with
         | Some diffs -> diffs
         | None -> [ Printf.sprintf "pinned line does not parse: %S" line ])

(* The mismatches of a pinned row's entries, or the row's absence. *)
let pinned_row bench engine got mismatch =
  if got = [] then
    [ Printf.sprintf "%s/%s: pinned, but the suite did not run it" bench engine ]
  else List.filter_map mismatch got

let expected_of_digests digests =
  String.concat ""
    (List.map
       (fun ((bench, engine), (sols, digest)) ->
         Printf.sprintf "%s %s %d %s\n" bench engine sols digest)
       digests)

let check_seq_core ~expected digests =
  check_pinned expected (function
    | [ bench; engine; sols; digest ] when int_of_string_opt sols <> None ->
      let sols = int_of_string sols in
      Some
        (pinned_row bench engine
           (List.filter (fun (k, _) -> k = (bench, engine)) digests)
           (fun (_, (s, d)) ->
             if s = sols && String.equal d digest then None
             else
               Some
                 (Printf.sprintf
                    "%s/%s: expected %d solutions (digest %s), got %d \
                     (digest %s)"
                    bench engine sols digest s d)))
    | _ -> None)

let words_metric = "words_per_solution"

let alloc_expected_of_rows rows =
  String.concat ""
    (List.filter_map
       (fun r ->
         if r.Bench.metric <> words_metric then None
         else
           Some
             (Printf.sprintf "%s %s %.1f\n" r.Bench.key.Bench.benchmark
                r.Bench.key.Bench.engine r.Bench.median))
       rows)

(* Allocation per solution is deterministic, so a 10% tolerance (plus
   one word, which keeps near-zero pins meaningful) never trips on
   noise. *)
let tolerance = 0.10

let check_alloc ~expected rows =
  check_pinned expected (function
    | [ bench; engine; words ] when float_of_string_opt words <> None ->
      let pinned = float_of_string words in
      Some
        (pinned_row bench engine
           (List.filter
              (fun r ->
                r.Bench.metric = words_metric
                && r.Bench.key.Bench.benchmark = bench
                && r.Bench.key.Bench.engine = engine)
              rows)
           (fun r ->
             let current = r.Bench.median in
             if current <= (pinned *. (1.0 +. tolerance)) +. 1.0 then None
             else
               Some
                 (Printf.sprintf
                    "%s/%s: %.1f minor words/solution, pinned %.1f (+%.0f%% \
                     > %.0f%% tolerance)"
                    bench engine current pinned
                    ((current /. Float.max pinned 1e-9 -. 1.0) *. 100.0)
                    (tolerance *. 100.0))))
    | _ -> None)

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
