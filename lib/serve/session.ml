module Engine = Ace_core.Engine
module Cancel = Ace_core.Cancel
module Config = Ace_machine.Config
module Database = Ace_lang.Database
module Program = Ace_lang.Program
module Clause = Ace_lang.Clause

type t = {
  prepared : Engine.prepared;
  sdb : Database.t; (* the session's overlay *)
  engine : Engine.kind;
  config : Config.t;
  run_lock : Mutex.t;
    (* serializes this session's queries and overlay mutations: the
       overlay is single-writer and engines must not read it mid-assert *)
  inflight : (int, Cancel.t) Hashtbl.t; (* guarded by [ilock], not [run_lock] *)
  ilock : Mutex.t;
}

let create ?(engine = Engine.Sequential)
    ?(config = { Config.default with compile = true }) prepared =
  {
    prepared;
    sdb = Engine.session prepared;
    engine;
    config;
    run_lock = Mutex.create ();
    inflight = Hashtbl.create 8;
    ilock = Mutex.create ();
  }

let db s = s.sdb

type answer = {
  solutions : string list;
  terms : Ace_term.Term.t list;
  cancelled : Cancel.reason option;
  time_ns : int;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let register s id token =
  match id with
  | None -> ()
  | Some id -> with_lock s.ilock (fun () -> Hashtbl.replace s.inflight id token)

let unregister s id =
  match id with
  | None -> ()
  | Some id -> with_lock s.ilock (fun () -> Hashtbl.remove s.inflight id)

let cancel s id =
  with_lock s.ilock (fun () ->
      match Hashtbl.find_opt s.inflight id with
      | Some token ->
        Cancel.cancel token;
        true
      | None -> false)

let cancel_all s =
  with_lock s.ilock (fun () ->
      Hashtbl.iter (fun _ token -> Cancel.cancel token) s.inflight)

let inflight s = with_lock s.ilock (fun () -> Hashtbl.length s.inflight)

(* Anything a bad goal or a bad program can raise must come back as a
   protocol error, not kill the worker thread serving the session —
   [Failure] included: a simulator's step cap and a failed
   [Domain.spawn] raise it. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Program.Error msg -> Error msg
  | exception Ace_core.Errors.Engine_error msg -> Error msg
  | exception Ace_term.Arith.Error msg -> Error ("arithmetic error: " ^ msg)
  | exception Clause.Malformed msg -> Error ("malformed clause: " ^ msg)
  | exception Ace_lang.Parser.Error (msg, _) -> Error ("parse error: " ^ msg)
  | exception Invalid_argument msg -> Error msg
  | exception Failure msg -> Error msg

(* The run options a request sets, refused by their wire names. *)
let check_request kind ~agents ~limit ~deadline_ms =
  if agents < 1 then Error (Printf.sprintf "agents must be >= 1 (got %d)" agents)
  else
    match (limit, deadline_ms) with
    | Some n, _ when n < 0 -> Error (Printf.sprintf "limit must be >= 0 (got %d)" n)
    | _, Some n when n < 0 -> Error (Printf.sprintf "deadline_ms must be >= 0 (got %d)" n)
    | _ -> Engine.check_agents kind agents

let query ?id ?engine ?agents ?limit ?deadline_ms s goal_text =
  let t0 = Unix.gettimeofday () in
  let kind = Option.value ~default:s.engine engine in
  let agents = Option.value ~default:s.config.Config.agents agents in
  match
    Result.bind (check_request kind ~agents ~limit ~deadline_ms) (fun () ->
        guard (fun () -> Program.parse_query goal_text))
  with
  | Error _ as e -> e
  | Ok q ->
    let config =
      {
        s.config with
        Config.agents;
        max_solutions =
          (match limit with
          | Some _ -> limit
          | None -> s.config.Config.max_solutions);
      }
    in
    let token = Cancel.create ?deadline_ms () in
    register s id token;
    Fun.protect
      ~finally:(fun () -> unregister s id)
      (fun () ->
        with_lock s.run_lock (fun () ->
            guard (fun () ->
                let r =
                  Engine.run
                    ~opts:{ Engine.default_opts with Engine.cancel = token }
                    ~session:s.sdb kind config s.prepared q.Program.goal
                in
                {
                  solutions = List.map Ace_term.Pp.to_string r.Engine.solutions;
                  terms = r.Engine.solutions;
                  cancelled = r.Engine.cancelled;
                  time_ns =
                    int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
                })))

(* Clause text: the final '.' is optional, as for queries. *)
let parse_clause text =
  let text = String.trim text in
  let text =
    if String.length text > 0 && text.[String.length text - 1] = '.' then text
    else text ^ "."
  in
  Clause.of_term (Ace_lang.Parser.term_of_string text)

let assert_clause ?(front = false) s text =
  guard (fun () ->
      let clause = parse_clause text in
      with_lock s.run_lock (fun () ->
          if front then Database.asserta s.sdb clause
          else Database.assertz s.sdb clause))

let retract_clause s text =
  guard (fun () ->
      let pattern = parse_clause text in
      with_lock s.run_lock (fun () -> Database.retract s.sdb pattern))
