(* Socket front end: listener + per-connection readers + a worker pool
   behind active-work-count admission control.

   Locking order and signal safety: [qlock] guards the job queue and
   counters, [clock] guards the connection list.  [drain] must be safe
   to call from a signal handler, so it only flips an atomic and spawns
   a helper thread — the helper does the lock-taking work (broadcast,
   cancel tokens).  The listener polls the drain flag with a short
   [select] timeout instead of relying on being woken out of [accept]. *)

module Engine = Ace_core.Engine

type conn = {
  c_fd : Unix.file_descr;
  c_ic : in_channel;
  c_oc : out_channel;
  c_wlock : Mutex.t; (* one response line at a time *)
  c_session : Session.t;
  mutable c_closed : bool; (* guarded by the server's [clock] *)
}

type job = {
  j_conn : conn;
  j_id : int;
  j_goal : string;
  j_engine : Engine.kind option;
  j_agents : int option;
  j_limit : int option;
  j_deadline_ms : int option;
}

type t = {
  prepared : Engine.prepared;
  engine : Engine.kind;
  config : Ace_machine.Config.t;
  listen_fd : Unix.file_descr;
  listen : Unix.sockaddr;
  max_active : int;
  draining : bool Atomic.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  queue : job Queue.t; (* guarded by [qlock] *)
  mutable active : int; (* admitted (queued or running); guarded by [qlock] *)
  mutable served : int;
  mutable rejected : int;
  clock : Mutex.t;
  mutable conns : conn list; (* guarded by [clock] *)
  mutable rthreads : Thread.t list; (* reader threads; guarded by [clock] *)
  mutable core_threads : Thread.t list; (* listener + workers *)
}

type stats = { active : int; served : int; rejected : int; connections : int }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let stats srv =
  let active, served, rejected =
    with_lock srv.qlock (fun () -> (srv.active, srv.served, srv.rejected))
  in
  let connections =
    with_lock srv.clock (fun () ->
        List.length (List.filter (fun c -> not c.c_closed) srv.conns))
  in
  { active; served; rejected; connections }

(* A dead peer must not take the worker down with it: the query already
   ran; the response is simply lost with the connection. *)
let send conn line =
  with_lock conn.c_wlock (fun () ->
      try
        output_string conn.c_oc line;
        output_char conn.c_oc '\n';
        flush conn.c_oc
      with Sys_error _ | Unix.Unix_error _ -> ())

let close_conn srv conn =
  let do_close =
    with_lock srv.clock (fun () ->
        if conn.c_closed then false
        else begin
          conn.c_closed <- true;
          srv.conns <- List.filter (fun c -> c != conn) srv.conns;
          true
        end)
  in
  if do_close then begin
    (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let reply_stats srv =
  let s = stats srv in
  Protocol.Reply
    [
      ("active", Ace_obs.Json.int s.active);
      ("served", Ace_obs.Json.int s.served);
      ("rejected", Ace_obs.Json.int s.rejected);
      ("connections", Ace_obs.Json.int s.connections);
    ]

let admit srv job =
  with_lock srv.qlock (fun () ->
      if Atomic.get srv.draining then Error "draining"
      else if srv.active >= srv.max_active then begin
        srv.rejected <- srv.rejected + 1;
        Error Protocol.overloaded
      end
      else begin
        srv.active <- srv.active + 1;
        Queue.push job srv.queue;
        Condition.signal srv.qcond;
        Ok ()
      end)

(* Returns false when the connection should close. *)
let handle_request srv conn req =
  let respond r = send conn (Protocol.print_response r) in
  match req with
  | Protocol.Ping ->
    respond (Protocol.Reply [ ("pong", Ace_obs.Json.Bool true) ]);
    true
  | Protocol.Stats ->
    respond (reply_stats srv);
    true
  | Protocol.Quit ->
    respond (Protocol.Reply [ ("bye", Ace_obs.Json.Bool true) ]);
    false
  | Protocol.Cancel { id } ->
    let hit = Session.cancel conn.c_session id in
    respond (Protocol.Reply [ ("cancelled", Ace_obs.Json.Bool hit) ]);
    true
  | Protocol.Assert { clause; front } ->
    (match Session.assert_clause ~front conn.c_session clause with
    | Ok () -> respond (Protocol.Reply [])
    | Error message -> respond (Protocol.Failure { id = None; message }));
    true
  | Protocol.Retract { clause } ->
    (match Session.retract_clause conn.c_session clause with
    | Ok removed ->
      respond (Protocol.Reply [ ("removed", Ace_obs.Json.Bool removed) ])
    | Error message -> respond (Protocol.Failure { id = None; message }));
    true
  | Protocol.Query { id; goal; engine; agents; limit; deadline_ms } ->
    (match
       admit srv
         {
           j_conn = conn;
           j_id = id;
           j_goal = goal;
           j_engine = engine;
           j_agents = agents;
           j_limit = limit;
           j_deadline_ms = deadline_ms;
         }
     with
    | Ok () -> ()
    | Error message -> respond (Protocol.Failure { id = Some id; message }));
    true

(* The longest request line read, newline excluded: a peer cannot grow
   the server's memory past it by withholding the newline. *)
let max_line = 1 lsl 20

exception Line_too_long

(* [input_line] that reads at most [max_line] bytes of one line into
   [buf], raising [Line_too_long] on the next one. *)
let read_line ic buf =
  Buffer.clear buf;
  let rec go () =
    match input_char ic with
    | '\n' -> Buffer.contents buf
    | c ->
      if Buffer.length buf >= max_line then raise Line_too_long;
      Buffer.add_char buf c;
      go ()
    | exception End_of_file when Buffer.length buf > 0 -> Buffer.contents buf
  in
  go ()

let reader srv conn () =
  let buf = Buffer.create 256 in
  let rec loop () =
    match read_line conn.c_ic buf with
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
    | exception Line_too_long ->
      (* the rest of the line is never read: answer once and hang up *)
      let message =
        Printf.sprintf "request line longer than %d bytes" max_line
      in
      send conn
        (Protocol.print_response (Protocol.Failure { id = None; message }))
    | "" -> loop ()
    | line -> (
      match Protocol.parse_request line with
      | Error message ->
        send conn
          (Protocol.print_response (Protocol.Failure { id = None; message }));
        loop ()
      | Ok req -> if handle_request srv conn req then loop ())
  in
  loop ();
  (* the peer is gone (or sent quit): abort its in-flight queries *)
  Session.cancel_all conn.c_session;
  close_conn srv conn

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

let run_job srv job =
  let response =
    (* a drain between admission and execution refuses the job like
       admission would have — drain time stays bounded by the queries
       already running, whose tokens are fired *)
    if Atomic.get srv.draining then
      Protocol.Failure { id = Some job.j_id; message = "draining" }
    else
      match
        Session.query ~id:job.j_id ?engine:job.j_engine ?agents:job.j_agents
          ?limit:job.j_limit ?deadline_ms:job.j_deadline_ms job.j_conn.c_session
          job.j_goal
      with
      | Ok a ->
        Protocol.Answer
          {
            id = job.j_id;
            solutions = a.Session.solutions;
            cancelled =
              Option.map Ace_core.Cancel.reason_to_string a.Session.cancelled;
            time_ns = a.Session.time_ns;
          }
      | Error message -> Protocol.Failure { id = Some job.j_id; message }
  in
  (* counters first: a client that has read its answer must see it
     reflected in an immediately following stats reply *)
  with_lock srv.qlock (fun () ->
      srv.active <- srv.active - 1;
      srv.served <- srv.served + 1);
  send job.j_conn (Protocol.print_response response)

let worker srv () =
  let rec loop () =
    let job =
      with_lock srv.qlock (fun () ->
          let rec next () =
            if not (Queue.is_empty srv.queue) then Some (Queue.pop srv.queue)
            else if Atomic.get srv.draining then None
            else begin
              Condition.wait srv.qcond srv.qlock;
              next ()
            end
          in
          next ())
    in
    match job with
    | Some job ->
      run_job srv job;
      loop ()
    | None -> ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)
(* ------------------------------------------------------------------ *)

let accept_conn srv fd =
  let conn =
    {
      c_fd = fd;
      c_ic = Unix.in_channel_of_descr fd;
      c_oc = Unix.out_channel_of_descr fd;
      c_wlock = Mutex.create ();
      c_session = Session.create ~engine:srv.engine ~config:srv.config srv.prepared;
      c_closed = false;
    }
  in
  let th = Thread.create (reader srv conn) () in
  with_lock srv.clock (fun () ->
      srv.conns <- conn :: srv.conns;
      srv.rthreads <- th :: srv.rthreads)

let listener srv () =
  let rec loop () =
    if Atomic.get srv.draining then ()
    else begin
      (match Unix.select [ srv.listen_fd ] [] [] 0.2 with
      | [ _ ], _, _ -> (
        match Unix.accept srv.listen_fd with
        | fd, _ -> accept_conn srv fd
        | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> Thread.delay 0.05);
      loop ()
    end
  in
  loop ();
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (* a drained server leaves no socket file behind *)
  match srv.listen with
  | Unix.ADDR_UNIX path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(workers = 4) ?max_active ?(engine = Engine.Sequential)
    ?(config = { Ace_machine.Config.default with compile = true })
    ~listen prepared =
  let max_active = Option.value ~default:(2 * workers) max_active in
  if workers < 1 then invalid_arg "Server.create: workers < 1";
  if max_active < 1 then invalid_arg "Server.create: max_active < 1";
  (* a worker writing to a connection the peer abandoned must get EPIPE
     as an exception path, not a process-killing signal *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  let domain =
    match listen with
    | Unix.ADDR_UNIX path ->
      (try if Sys.file_exists path then Unix.unlink path
       with Sys_error _ | Unix.Unix_error _ -> ());
      Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match listen with
  | Unix.ADDR_INET _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX _ -> ());
  Unix.bind listen_fd listen;
  Unix.listen listen_fd 64;
  let srv =
    {
      prepared;
      engine;
      config;
      listen_fd;
      listen;
      max_active;
      draining = Atomic.make false;
      qlock = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      active = 0;
      served = 0;
      rejected = 0;
      clock = Mutex.create ();
      conns = [];
      rthreads = [];
      core_threads = [];
    }
  in
  let ths =
    Thread.create (listener srv) ()
    :: List.init workers (fun _ -> Thread.create (worker srv) ())
  in
  srv.core_threads <- ths;
  srv

let drain srv =
  if not (Atomic.exchange srv.draining true) then
    (* from a signal handler: no locks here — the helper thread takes
       them *)
    ignore
      (Thread.create
         (fun () ->
           with_lock srv.qlock (fun () -> Condition.broadcast srv.qcond);
           let conns = with_lock srv.clock (fun () -> srv.conns) in
           List.iter (fun c -> Session.cancel_all c.c_session) conns)
         ())

let wait srv =
  List.iter Thread.join srv.core_threads;
  (* workers are done: wake the readers (EOF) and join them *)
  let conns = with_lock srv.clock (fun () -> srv.conns) in
  List.iter
    (fun c ->
      try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  let rec drain_readers () =
    let ths =
      with_lock srv.clock (fun () ->
          let ths = srv.rthreads in
          srv.rthreads <- [];
          ths)
    in
    match ths with
    | [] -> ()
    | ths ->
      List.iter Thread.join ths;
      drain_readers ()
  in
  drain_readers ()
