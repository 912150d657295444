(* The serve layers.

   serve_inproc, an end-to-end workload: one caller runs seeded sessions
   through ace_serve's request path in process (Protocol, Session and
   its overlay, answer printing) on the seq engine, one request at a
   time.  The solve workload bypasses all of these.

   Every traced run also measures the `ace_serve` binary as a child
   process on a Unix socket over the generated knowledge base, driven by
   two closed-loop connections running short seeded sessions, and
   replays the same request stream in process, one layer call per span.
   That child-process loop as an end-to-end workload, serve_seq, is not
   run: in a stretch where the host slowed the solve loop 1.8x, round
   trips through the server's threads slowed 2.7x in rate and 6x at
   p99, more than any reading of the host's speed could mend (IQR/median
   of p99 over 10 seeds: 66% and 179% in two sets). *)

module Json = Ace_obs.Json
module Engine = Ace_core.Engine
module Program = Ace_lang.Program
module Protocol = Ace_server.Protocol
module Session = Ace_server.Session

let connections = 2

(* ------------------------------------------------------------------ *)
(* The child server                                                    *)
(* ------------------------------------------------------------------ *)

type child = { pid : int; sock : string }

let exe = "_build/default/bin/ace_serve.exe"

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception e ->
    Unix.close fd;
    raise e

let roundtrip ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let ping_line = Gen.json_line [ ("op", Json.Str "ping") ]
let stats_line = Gen.json_line [ ("op", Json.Str "stats") ]

(* Starts the server on a socket in [dir] and returns once it answered a
   ping. *)
let spawn ~dir ~kb_file =
  let sock = Filename.concat dir "s.sock" in
  let log = Filename.concat dir "serve.log" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe [| exe; "--socket"; sock; kb_file |] devnull devnull err
  in
  Unix.close devnull;
  Unix.close err;
  let child = { pid; sock } in
  let deadline = Stat.now_ns () + 120_000_000_000 in
  let rec wait_ready () =
    if Stat.now_ns () > deadline then failwith "ace_serve did not answer a ping in 120 s";
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> failwith ("ace_serve exited during start-up; see " ^ log)
    | _ -> (
      match connect sock with
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        wait_ready ()
      | fd, ic, oc ->
        let reply = try roundtrip ic oc ping_line with End_of_file -> "" in
        Unix.close fd;
        if not (String.length reply > 0 && Json.member "pong" (Result.get_ok (Json.parse reply)) = Some (Json.Bool true))
        then failwith ("bad ping reply: " ^ reply))
  in
  wait_ready ();
  child

(* Reads the child's peak RSS, then drains it with SIGTERM.  Fails if it
   has not exited within [timeout] s, exits non-zero, or its socket file
   cannot be removed. *)
let stop ?(timeout = 20.) child =
  let hwm = Stat.vm_hwm_mb (string_of_int child.pid) in
  Unix.kill child.pid Sys.sigterm;
  let deadline = Stat.now_ns () + int_of_float (timeout *. 1e9) in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] child.pid with
    | p, status when p = child.pid -> Some status
    | _ ->
      if Stat.now_ns () > deadline then None
      else begin
        Unix.sleepf 0.005;
        reap ()
      end
  in
  (match reap () with
   | Some (Unix.WEXITED 0) -> ()
   | Some _ -> failwith "ace_serve exited abnormally after SIGTERM"
   | None ->
     Unix.kill child.pid Sys.sigkill;
     ignore (Unix.waitpid [] child.pid);
     failwith (Printf.sprintf "ace_serve did not exit within %.0f s of SIGTERM" timeout));
  (* ace_serve closes but does not unlink its listening socket *)
  (try Sys.remove child.sock with Sys_error _ -> ());
  if Sys.file_exists child.sock then failwith ("socket file left behind: " ^ child.sock);
  hwm

(* ------------------------------------------------------------------ *)
(* Client connections                                                  *)
(* ------------------------------------------------------------------ *)

type conn_result = {
  server : Stat.samples;     (* queries: the reply's time_ns, ms *)
  wire : Stat.samples;       (* queries: round trip minus time_ns, ms *)
  connect_ms : Stat.samples;
  spans : Span.t;            (* this connection's thread *)
  mutable attempted : int;
  mutable failed : int;
}

let new_result () =
  { server = Stat.samples (); wire = Stat.samples (); connect_ms = Stat.samples ();
    spans = Span.create (); attempted = 0; failed = 0 }

(* Whether [reply] is the expected answer to [req]. *)
let check (req : Gen.request) reply =
  match Json.parse reply with
  | Error _ -> (false, None)
  | Ok j ->
    let ok = Json.member "ok" j = Some (Json.Bool true) in
    let time_ns = match Json.member "time_ns" j with Some (Json.Num t) -> Some t | _ -> None in
    let good =
      ok
      &&
      match req.Gen.reply with
      | Gen.Asserted -> true
      | Gen.Removed -> Json.member "removed" j = Some (Json.Bool true)
      | Gen.Solutions expected -> (
        match Option.bind (Json.member "solutions" j) Json.to_list with
        | Some l ->
          let got = List.filter_map (function Json.Str s -> Some s | _ -> None) l in
          Gen.sorted got = expected
        | None -> false)
    in
    (good, time_ns)

(* One connection's closed loop: sessions of [Gen.session] until
   [deadline] (at least two), every other one traced. *)
let client ~sock ~kb ~seed ~conn ~deadline () =
  let res = new_result () in
  let spans = res.spans in
  let n = ref 0 in
  while !n < 2 || Stat.now_ns () < deadline do
    spans.Span.on <- !n mod 2 = 0;
    let reqs = Gen.session kb seed ~conn !n in
    let s0 = Stat.now_ns () in
    let fd, ic, oc =
      Span.with_span spans "connect" ~op:(-1) (fun () -> connect sock)
    in
    Stat.add res.connect_ms (Stat.ms_of_ns (Stat.now_ns () - s0));
    List.iteri
      (fun i (req : Gen.request) ->
        let t0 = Stat.now_ns () in
        let reply =
          Span.with_span spans "request" ~op:i (fun () ->
              try roundtrip ic oc req.Gen.line with End_of_file -> "")
        in
        let ms = Stat.ms_of_ns (Stat.now_ns () - t0) in
        res.attempted <- res.attempted + 1;
        let good, time_ns = check req reply in
        (match time_ns with
         | Some t ->
           Stat.add res.server (t /. 1e6);
           Stat.add res.wire (ms -. (t /. 1e6))
         | None -> ());
        if not good then begin
          res.failed <- res.failed + 1;
          Printf.eprintf "perfbench: wrong reply to %s: %s\n%!" req.Gen.line reply
        end)
      reqs;
    (try ignore (roundtrip ic oc Gen.quit_line) with End_of_file -> ());
    Unix.close fd;
    incr n
  done;
  res

let server_stat sock field =
  let fd, ic, oc = connect sock in
  let reply = roundtrip ic oc stats_line in
  ignore (roundtrip ic oc Gen.quit_line);
  Unix.close fd;
  match Result.map (Json.member field) (Json.parse reply) with
  | Ok (Some (Json.Num n)) -> n
  | _ -> failwith ("bad stats reply: " ^ reply)

type loop = {
  results : conn_result list;
  rejected : float;
}

let run_clients child ~kb ~seed ~seconds =
  let deadline = Stat.now_ns () + int_of_float (seconds *. 1e9) in
  let results = Array.make connections None in
  let threads =
    List.init connections (fun conn ->
        Thread.create
          (fun () ->
            results.(conn) <-
              Some
                (try client ~sock:child.sock ~kb ~seed ~conn ~deadline ()
                 with e ->
                   Printf.eprintf "perfbench: connection %d died: %s\n%!" conn
                     (Printexc.to_string e);
                   let r = new_result () in
                   r.failed <- 1;
                   r.attempted <- 1;
                   r))
          ())
  in
  List.iter Thread.join threads;
  { results = Array.to_list results |> List.map Option.get;
    rejected = server_stat child.sock "rejected" }

let merged f loop =
  Array.concat (List.map (fun r -> Stat.to_array (f r)) loop.results)

let attempted loop = List.fold_left (fun a r -> a + r.attempted) 0 loop.results
let failed loop = List.fold_left (fun a r -> a + r.failed) 0 loop.results

(* ------------------------------------------------------------------ *)
(* The request path in process                                         *)
(* ------------------------------------------------------------------ *)

(* One request on session [s] as ace_serve's reader and worker threads
   handle it: parse, the session call, print the response, each under a
   span.  Returns the check of the reply, to run after any timing. *)
let handle spans s ~op (req : Gen.request) =
  let span name f = Span.with_span spans name ~op f in
  let parsed = span "Protocol.parse_request" (fun () -> Protocol.parse_request req.Gen.line) in
  let response, check =
    match parsed, req.Gen.reply with
    | Ok (Protocol.Query { id; goal; _ }), Gen.Solutions expected -> (
      match span "Session.query" (fun () -> Session.query ~id s goal) with
      | Ok a ->
        ( Protocol.Answer
            { id; solutions = a.Session.solutions; cancelled = None;
              time_ns = a.Session.time_ns },
          fun () -> Gen.sorted a.Session.solutions = expected )
      | Error message -> (Protocol.Failure { id = Some id; message }, fun () -> false))
    | Ok (Protocol.Assert { clause; front }), Gen.Asserted ->
      let r = span "Session.assert_clause" (fun () -> Session.assert_clause ~front s clause) in
      (Protocol.Reply [], fun () -> r = Ok ())
    | Ok (Protocol.Retract { clause }), Gen.Removed ->
      let r = span "Session.retract_clause" (fun () -> Session.retract_clause s clause) in
      (Protocol.Reply [ ("removed", Json.Bool (r = Ok true)) ], fun () -> r = Ok true)
    | _ -> (Protocol.Reply [], fun () -> false)
  in
  ignore (span "Protocol.print_response" (fun () -> Protocol.print_response response));
  check

let report_wrong (req : Gen.request) =
  Printf.eprintf "perfbench: wrong answer to %s\n%!" req.Gen.line

(* How strongly a request slows down with the calibration loop (see
   Solve.exponent): on the serve KB every request kind runs in cache, as
   the loop does, and slows down as it does (exponents 1.0-1.2 spread
   four 25-s runs on a 2-vCPU host least, 0.7 up to twice as much). *)
let exponent = 1.0

type inproc = {
  lat : Stat.samples;  (* every request's time at full host speed, ms *)
  mutable i_attempted : int;
  mutable i_failed : int;
}

(* The serve_inproc loop: sessions [first], [first+1], ... of connection
   0's stream until [seconds] have passed (and at least [min_sessions]),
   each on a new Session, one request at a time, each timed between
   calibration loops on the faster vCPU. *)
let inproc ?(first = 0) ?(min_sessions = 2) ?(traced = false) prepared ~kb ~seed ~seconds =
  (* room for twice the requests a run makes on a 2-vCPU host, so that
     the buffer's size, part of peak_rss_mb, does not follow the
     request count (it spread that metric 15% between runs) *)
  let capacity = 1024 + int_of_float (seconds *. 5_000.) in
  let d = { lat = Stat.samples ~capacity (); i_attempted = 0; i_failed = 0 } in
  let spans = Span.create () in
  spans.Span.on <- traced;
  let deadline = Stat.now_ns () + int_of_float (seconds *. 1e9) in
  let n = ref first in
  while !n - first < min_sessions || Stat.now_ns () < deadline do
    Cpu.to_fastest ();
    let s = Session.create prepared in
    let cal = ref (Stat.calibrate_ns ()) in
    List.iteri
      (fun i (req : Gen.request) ->
        let t0 = Stat.now_ns () in
        let check = handle spans s ~op:i req in
        let dt = Stat.now_ns () - t0 in
        let c = Stat.calibrate_ns () in
        Stat.add d.lat
          (Stat.at_full_speed
             { ms = Stat.ms_of_ns dt; cal = Stat.ms_of_ns (max !cal c); e = exponent });
        cal := c;
        d.i_attempted <- d.i_attempted + 1;
        if not (check ()) then begin
          d.i_failed <- d.i_failed + 1;
          report_wrong req
        end)
      (Gen.session kb seed ~conn:0 !n);
    incr n
  done;
  Cpu.release ();
  d

(* The serve_inproc set-up: consult + prepare of the knowledge base,
   then one warm-up session. *)
let inproc_setup spans ~kb ~seed =
  Solve.repeat_setup (fun ~rep ->
      let progs, lang = Solve.prepare_all spans [| kb.Gen.text |] in
      let warm = inproc progs.(0) ~kb ~seed ~first:(-1 - rep) ~min_sessions:1 ~seconds:0. in
      if warm.i_failed > 0 then raise (Solve.Wrong_answer "during the warm-up session");
      ( (progs.(0), lang),
        lang.Solve.full_speed_s
        +. (Stat.sum (Stat.to_array warm.lat) /. 1e3) ))

(* Tracing's cost on the serve_inproc loop: time per request (at full
   host speed) with spans recorded over that without, in alternating
   quarters of [seconds]. *)
let trace_overhead prepared ~kb ~seed ~seconds =
  let per_request traced =
    let d = inproc ~traced prepared ~kb ~seed ~seconds:(seconds /. 4.) in
    if d.i_failed > 0 then raise (Solve.Wrong_answer "in the traced serve_inproc loop");
    Stat.sum (Stat.to_array d.lat) /. float_of_int d.i_attempted
  in
  let off = per_request false in
  let on = per_request true in
  let off' = per_request false in
  let on' = per_request true in
  ((on +. on') /. (off +. off')) -. 1.

(* ------------------------------------------------------------------ *)
(* In-process replay                                                   *)
(* ------------------------------------------------------------------ *)

type replay = {
  spans : Span.t;
  lang : Solve.lang;
  base_ms : Stat.samples;     (* Engine.run on the base *)
  session_ms : Stat.samples;  (* Engine.run on the session overlay *)
  mutable r_attempted : int;
  mutable r_failed : int;
}

(* Consults the knowledge base in-process, then replays sessions of
   connection 0's stream for [seconds], one layer call per span. *)
let replay ~kb ~seed ~seconds =
  let spans = Span.create () in
  spans.Span.on <- true;
  let progs, lang = Solve.prepare_all spans [| kb.Gen.text |] in
  let prepared = progs.(0) in
  let r =
    { spans; lang; base_ms = Stat.samples (); session_ms = Stat.samples ();
      r_attempted = 0; r_failed = 0 }
  in
  let deadline = Stat.now_ns () + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  let op = ref 0 in
  while !n < 1 || Stat.now_ns () < deadline do
    let s =
      Span.with_span spans "Session.create" ~op:(-1) (fun () -> Session.create prepared)
    in
    List.iter
      (fun (req : Gen.request) ->
        incr op;
        let op = !op in
        Span.with_span spans "op" ~op @@ fun () ->
        (match Protocol.parse_request req.Gen.line with
         | Ok (Protocol.Query { goal; _ }) ->
           (* what Session.query does inside, timed apart: the goal
              parse, and the printing of answers (those of the base
              run); plus the overlay tax, the same goal on the base and
              on the session overlay after one untimed run, so both
              find warm caches *)
           let q =
             Span.with_span spans "Program.parse_query" ~op (fun () ->
                 Program.parse_query goal)
           in
           let timed f =
             let t0 = Stat.now_ns () in
             let x = f () in
             (x, Stat.ms_of_ns (Stat.now_ns () - t0))
           in
           let config = { Ace_machine.Config.default with compile = true } in
           let run ?session () =
             Engine.run ?session Engine.Sequential config prepared q.Program.goal
           in
           ignore (run ());
           let base, base_ms = timed (fun () -> run ()) in
           Stat.add r.base_ms base_ms;
           Stat.add r.session_ms (snd (timed (fun () -> run ~session:(Session.db s) ())));
           ignore
             (Span.with_span spans "Pp" ~op (fun () ->
                  List.map (Format.asprintf "%a" Ace_term.Pp.pp) base.Engine.solutions))
         | _ -> ());
        let check = handle spans s ~op req in
        r.r_attempted <- r.r_attempted + 1;
        if not (check ()) then begin
          r.r_failed <- r.r_failed + 1;
          report_wrong req
        end)
      (Gen.session kb seed ~conn:0 !n);
    incr n
  done;
  r

let replay_metrics r =
  let us name = Span.median ~scale:1e3 r.spans name in
  let ms name = Span.median ~scale:1. r.spans name in
  [ ("serve.parse_request_us", us "Protocol.parse_request", "us");
    ("serve.print_response_us", us "Protocol.print_response", "us");
    ("serve.goal_parse_us", us "Program.parse_query", "us");
    ("serve.session_run_ms", ms "Session.query", "ms");
    ("serve.print_answers_us", us "Pp", "us");
    ("serve.overlay_tax",
     Stat.sum (Stat.to_array r.session_ms) /. Stat.sum (Stat.to_array r.base_ms), "1");
    ("serve.assert_us", us "Session.assert_clause", "us");
    ("serve.retract_ms", ms "Session.retract_clause", "ms");
    ("serve.session_create_us", us "Session.create", "us") ]
