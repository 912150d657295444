(* perfbench: the repository benchmark.

     perfbench.exe --workload solve_seq|serve_inproc --seed N
                   --seconds S --trace 0|1
     perfbench.exe --selftest

   Run from the repository root (perfbench/run.py builds and runs it).
   Prints a metric table, then, as the last line of standard output, one
   JSON object {"correct","attempted","failed","metrics"}: with --trace 0
   the end-to-end metrics, with --trace 1 the per-layer ones.  Exits 1
   on any wrong answer, 2 on any other failure. *)

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-layer metric -> the end-to-end metric and workload it should
   move.  Two workloads of the design are not run, as no host-speed
   reading could steady them: solve_par2 (the solve passes on Par_or at
   2 domains, see Par) and serve_seq (the out-of-process server, see
   Serve); serve_inproc stands in for the request path of the latter. *)
let moves =
  let on_setup = "setup_s on all workloads" in
  let seq_ops = "ops_per_s on solve_seq" in
  let par2 = " on solve_par2 (not run: too unsteady)" in
  let wire = " on serve_seq (not run: too unsteady)" in
  [ ("lang.", on_setup);
    ("core.run_ms.kb", "latency_p50_ms on solve_seq");
    ("core.run_ms", seq_ops);
    ("core.", seq_ops);
    ("gc.", seq_ops);
    ("table.", seq_ops);
    ("par.fixed", "latency_p50_ms and latency_geomean_ms" ^ par2);
    ("par.", "ops_per_s" ^ par2);
    ("serve.wire_ms", "latency_p50_ms" ^ wire);
    ("serve.connect_ms", "ops_per_s" ^ wire);
    ("serve.rejected", "ok_frac" ^ wire);
    ("serve.assert_us", "latency_p99_ms and ops_per_s on serve_inproc");
    ("serve.retract_ms", "latency_p99_ms and ops_per_s on serve_inproc");
    ("serve.session_create_us", "ops_per_s on serve_inproc");
    ("serve.", "latency_p50_ms on serve_inproc");
    ("trace.", "(tracing cost of this workload's traced run)") ]

let moved_by name =
  List.find_map
    (fun (prefix, m) ->
      if String.starts_with ~prefix name then Some m else None)
    moves
  |> Option.value ~default:""

type outcome = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
}

let print_outcome ~trace o =
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then begin
        Printf.eprintf "perfbench: %s has no value (too few samples?)\n" name;
        exit 2
      end)
    o.metrics;
  List.iter
    (fun (name, v, unit) ->
      if trace then Printf.printf "%-30s %14.6g %-6s -> %s\n" name v unit (moved_by name)
      else Printf.printf "%-30s %14.6g %s\n" name v unit)
    o.metrics;
  let correct = o.failed = 0 in
  let json =
    Ace_obs.Json.Obj
      [ ("correct", Ace_obs.Json.Bool correct);
        ("attempted", Ace_obs.Json.int o.attempted);
        ("failed", Ace_obs.Json.int o.failed);
        ("metrics",
         Ace_obs.Json.Obj
           (List.map
              (fun (name, v, unit) ->
                ( name,
                  Ace_obs.Json.Obj
                    [ ("value", Ace_obs.Json.Num v); ("unit", Ace_obs.Json.Str unit) ] ))
              o.metrics)) ]
  in
  print_endline (Ace_obs.Json.to_string json);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let ok_frac ~attempted ~failed =
  float_of_int (attempted - failed) /. float_of_int (max 1 attempted)

let e2e ~setup_s (s : Stat.summary) ~rss ~attempted ~failed =
  { metrics =
      [ ("setup_s", setup_s, "s");
        ("ops_per_s", s.Stat.ops_per_s, "1/s");
        ("latency_p50_ms", s.Stat.p50_ms, "ms");
        ("latency_p99_ms", s.Stat.p99_ms, "ms");
        ("latency_geomean_ms", s.Stat.geomean_ms, "ms");
        ("peak_rss_mb", rss, "MiB");
        ("ok_frac", ok_frac ~attempted ~failed, "1") ];
    attempted;
    failed }

let workloads = [ "solve_seq"; "serve_inproc" ]

let solve_e2e inputs ~seconds =
  let spans = Span.create () in
  let setup_s, progs, _ = Solve.setup spans Solve.seq inputs in
  let loop = Solve.run_passes spans Solve.seq inputs progs ~seconds in
  let s = Stat.summarize (Solve.latencies loop) in
  Printf.printf "solve_seq: %d queries in %.1f s, all counted at full host speed\n"
    s.Stat.samples loop.Solve.elapsed_s;
  e2e ~setup_s s ~rss:(Stat.vm_hwm_mb "self") ~attempted:loop.Solve.attempted
    ~failed:loop.Solve.failed

let inproc_e2e kb ~seed ~seconds =
  let setup_s, (prepared, _) = Serve.inproc_setup (Span.create ()) ~kb ~seed in
  let d = Serve.inproc prepared ~kb ~seed ~seconds in
  let s = Stat.summarize (Stat.to_array d.Serve.lat) in
  Printf.printf "serve_inproc: %d requests, all counted at full host speed\n" s.Stat.samples;
  e2e ~setup_s s ~rss:(Stat.vm_hwm_mb "self") ~attempted:d.Serve.i_attempted
    ~failed:d.Serve.i_failed

(* A run directory of its own: the knowledge-base file, server sockets
   and logs. *)
let run_dir workload seed =
  let root = "perfbench/_out" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  dir

let remove_dir dir =
  try
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  with Sys_error _ -> ()

(* Children still running; killed on any exit path. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun (c : Serve.child) ->
          (try Unix.kill c.Serve.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] c.Serve.pid) with Unix.Unix_error _ -> ())
        !live)

(* Starts ace_serve over the knowledge base, written to [dir]. *)
let spawn ~dir kb =
  let kb_file = Filename.concat dir "kb.pl" in
  Out_channel.with_open_text kb_file (fun oc -> output_string oc kb.Gen.text);
  let child = Serve.spawn ~dir ~kb_file in
  live := child :: !live;
  child

let stop child =
  let hwm = Serve.stop child in
  live := List.filter (fun c -> c != child) !live;
  hwm

(* The serve panel of a traced run: the out-of-process loop, half its
   sessions traced, plus the in-process replay. *)
let serve_layers ~dir kb ~seed ~seconds =
  let child = spawn ~dir kb in
  let loop = Serve.run_clients child ~kb ~seed ~seconds:(seconds /. 2.) in
  ignore (stop child);
  let med f = Stat.median (Serve.merged f loop) in
  let replay = Serve.replay ~kb ~seed ~seconds:(seconds /. 2.) in
  let metrics =
    [ ("serve.server_ms", med (fun r -> r.Serve.server), "ms");
      ("serve.wire_ms", med (fun r -> r.Serve.wire), "ms");
      ("serve.connect_ms", med (fun r -> r.Serve.connect_ms), "ms");
      ("serve.rejected", loop.Serve.rejected, "count") ]
    @ Serve.replay_metrics replay
  in
  let recorders =
    ("replay", replay.Serve.spans)
    :: List.mapi
         (fun i (r : Serve.conn_result) -> (Printf.sprintf "connection%d" i, r.Serve.spans))
         loop.Serve.results
  in
  ( metrics,
    recorders,
    Serve.attempted loop + replay.Serve.r_attempted,
    Serve.failed loop + replay.Serve.r_failed )

let lang_metrics (l : Solve.lang) =
  [ ("lang.consult_s", l.Solve.consult_s, "s");
    ("lang.prepare_s", l.Solve.prepare_s, "s");
    ("lang.clauses", float_of_int l.Solve.clauses, "count");
    ("lang.consult_us_per_clause",
     l.Solve.consult_s *. 1e6 /. float_of_int (max 1 l.Solve.clauses), "us") ]

(* The traced run: every per-layer metric.  The workload's own loop
   (half of it traced) gives the layers it exercises and the tracing
   overhead; probes give the rest. *)
let traced ~workload ~dir ~seed ~seconds =
  let inputs = Solve.inputs seed in
  let kb = Gen.kb ~nodes:Gen.serve_nodes seed in
  let spans = Span.create () in
  spans.Span.on <- true;
  let par = Par.probe inputs ~seconds:(0.15 *. seconds) in
  let _, progs, lang = Solve.setup spans Solve.seq inputs in
  let loop =
    Solve.run_passes ~alternate:true spans Solve.seq inputs progs ~seconds:(0.4 *. seconds)
  in
  let serve, recorders, sa, sf = serve_layers ~dir kb ~seed ~seconds:(0.3 *. seconds) in
  let solve_layers = Solve.layer_metrics loop in
  let layers =
    if workload = "serve_inproc" then
      let _, (prepared, lang) = Serve.inproc_setup spans ~kb ~seed in
      let overhead = Serve.trace_overhead prepared ~kb ~seed ~seconds:(0.1 *. seconds) in
      lang_metrics lang
      @ List.filter (fun (n, _, _) -> not (String.starts_with ~prefix:"trace." n)) solve_layers
      @ serve
      @ [ ("trace.overhead_frac", overhead, "1") ]
    else lang_metrics lang @ solve_layers @ serve
  in
  let attempted = sa + loop.Solve.attempted and failed = sf + loop.Solve.failed in
  (* one file per workload, replaced by each traced run *)
  Out_channel.with_open_text (Printf.sprintf "perfbench/_out/spans-%s.jsonl" workload)
    (fun oc ->
      List.iter (fun (recorder, t) -> Span.write oc ~recorder t)
        (("solve", spans) :: recorders));
  let metrics =
    (* per-layer panel order: lang, core, gc, table, par, serve, trace *)
    let is p (n, _, _) = String.starts_with ~prefix:p n in
    let pick p = List.filter (is p) layers in
    pick "lang." @ pick "core." @ pick "gc." @ pick "table." @ Par.metrics par
    @ pick "serve." @ pick "trace."
  in
  { metrics; attempted = attempted + par.Par.attempted; failed = failed + par.Par.failed }

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

let selftest () =
  let stream seed =
    let kb = Gen.kb seed in
    (kb.Gen.text, Gen.stream_text kb ~paper_expect:(fun _ -> Gen.Count 0) seed)
  in
  let kb1, s1 = stream 7 and kb1', s1' = stream 7 and kb2, s2 = stream 8 in
  let checks =
    [ ("same seed, same program text", String.equal kb1 kb1');
      ("same seed, same request stream", String.equal s1 s1');
      ("other seed, other program text", not (String.equal kb1 kb2));
      ("other seed, other request stream", not (String.equal s1 s2)) ]
  in
  List.iter (fun (what, ok) -> Printf.printf "%-34s %s\n" what (if ok then "ok" else "FAILED")) checks;
  if not (List.for_all snd checks) then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage = "perfbench.exe --workload W --seed N --seconds S --trace 0|1 | --selftest"

let () =
  (* a dead server must fail the run, not kill it with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "solve_seq | serve_inproc");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--selftest", Arg.Set self, "check that inputs are a function of the seed") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self then selftest ()
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline usage;
      exit 2
    end;
    let dir = run_dir !workload !seed in
    let outcome =
      try
        if !trace = 1 then traced ~workload:!workload ~dir ~seed:!seed ~seconds:!seconds
        else if !workload = "serve_inproc" then
          inproc_e2e (Gen.kb ~nodes:Gen.serve_nodes !seed) ~seed:!seed ~seconds:!seconds
        else solve_e2e (Solve.inputs !seed) ~seconds:!seconds
      with
      | Solve.Wrong_answer where ->
        Printf.eprintf "perfbench: wrong answer %s\n%!" where;
        remove_dir dir;
        exit 1
      | e ->
        Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
        remove_dir dir;
        exit 2
    in
    remove_dir dir;
    print_outcome ~trace:(!trace = 1) outcome
  end
