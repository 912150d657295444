(* ace_serve: the multi-tenant query daemon.  Consults the given
   programs once, freezes and compiles the database, then serves
   line-delimited JSON queries over a Unix or TCP socket (see
   lib/serve/protocol.mli for the wire format).

     ace_serve --socket /tmp/ace.sock --workers 4 program.pl
     ace_serve --port 7071 --engine par --agents 4 program.pl
     echo '{"op":"query","id":1,"goal":"path(a,X)"}' | nc -U /tmp/ace.sock

   SIGTERM / SIGINT drain gracefully: the listener stops, queued and
   new queries are refused, in-flight queries are cancelled (answering
   with their partial solutions), and the process exits once every
   worker has finished. *)

module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Program = Ace_lang.Program
module Server = Ace_server.Server

(* The start-up options, checked before anything is consulted; the
   error names the option. *)
let check_options kind ~workers ~max_active ~agents =
  if workers < 1 then Error "--workers must be >= 1"
  else if Option.value max_active ~default:1 < 1 then
    Error "--max-active must be >= 1"
  else if agents < 1 then Error "--agents must be >= 1"
  else Result.map_error (( ^ ) "--agents: ") (Engine.check_agents kind agents)

let serve socket port workers max_active engine agents files =
  let checked =
    Result.bind (Engine.kind_of_string engine) (fun kind ->
        match check_options kind ~workers ~max_active ~agents with
        | Ok () -> Ok kind
        | Error m -> Error ("ace_serve: " ^ m))
  in
  match checked with
  | Error m ->
    prerr_endline m;
    2
  | Ok kind -> (
    match (socket, port, files) with
    | None, None, _ ->
      prerr_endline "ace_serve: --socket PATH or --port N required";
      2
    | _, _, [] ->
      prerr_endline "ace_serve: at least one program file required";
      2
    | _ -> (
      try
        let program =
          List.fold_left
            (fun acc file -> Some (Program.consult_file ?program:acc file))
            None files
        in
        let prepared =
          Engine.prepare (Program.db (Option.get program))
        in
        let listen =
          match socket with
          | Some path -> Unix.ADDR_UNIX path
          | None ->
            Unix.ADDR_INET (Unix.inet_addr_loopback, Option.get port)
        in
        (* sequential sessions run compiled clause code; the other
           engines have one execution mode each *)
        let config = { Config.default with agents; compile = true } in
        let srv =
          Server.create ~workers ?max_active ~engine:kind ~config ~listen
            prepared
        in
        let drain _ = Server.drain srv in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
        Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
        Format.eprintf "ace_serve: listening on %s (%s, %d worker(s))@."
          (match listen with
          | Unix.ADDR_UNIX path -> path
          | Unix.ADDR_INET (_, p) -> Printf.sprintf "127.0.0.1:%d" p)
          (Engine.kind_to_string kind) workers;
        Server.wait srv;
        let s = Server.stats srv in
        Format.eprintf "ace_serve: drained (%d served, %d rejected)@."
          s.Server.served s.Server.rejected;
        0
      with
      | Program.Error msg | Ace_core.Errors.Engine_error msg ->
        Format.eprintf "error: %s@." msg;
        1
      | Unix.Unix_error (e, fn, arg) ->
        Format.eprintf "error: %s(%s): %s@." fn arg (Unix.error_message e);
        1))

open Cmdliner

let cmd =
  let doc = "serve ACE queries over a socket" in
  Cmd.v
    (Cmd.info "ace_serve" ~doc)
    Term.(
      const serve
      $ Arg.(value & opt (some string) None & info [ "socket"; "s" ]
               ~docv:"PATH" ~doc:"Listen on a Unix domain socket at PATH.")
      $ Arg.(value & opt (some int) None & info [ "port" ]
               ~docv:"N" ~doc:"Listen on TCP 127.0.0.1:N.")
      $ Arg.(value & opt int 4 & info [ "workers"; "j" ] ~docv:"N"
               ~doc:"Query worker threads.")
      $ Arg.(value & opt (some int) None & info [ "max-active" ] ~docv:"N"
               ~doc:"Admission-control bound: refuse new queries (error \
                     \"overloaded\") while N are queued or running \
                     (default 2 * workers).")
      $ Arg.(value & opt string "seq" & info [ "engine"; "e" ] ~docv:"ENGINE"
               ~doc:"Default engine per session: seq | and | or | par; a \
                     query may override it.")
      $ Arg.(value & opt int 1 & info [ "agents"; "p" ] ~docv:"N"
               ~doc:"Default agent/domain count per query.")
      $ Arg.(value & pos_all string [] & info [] ~docv:"PROGRAM"
               ~doc:"Prolog source files, consulted in order."))

let () = exit (Cmd.eval' cmd)
