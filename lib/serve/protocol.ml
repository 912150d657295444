(* Line-delimited JSON framing for the query server.  Kept data-only (no
   sockets, no sessions) so the in-process oracle row and the tests can
   speak the exact wire format without a connection. *)

module Json = Ace_obs.Json

type request =
  | Query of {
      id : int;
      goal : string;
      engine : Ace_core.Engine.kind option;
      agents : int option;
      limit : int option;
      deadline_ms : int option;
    }
  | Cancel of { id : int }
  | Assert of { clause : string; front : bool }
  | Retract of { clause : string }
  | Ping
  | Stats
  | Quit

let int_field j name =
  match Json.member name j with
  | Some (Json.Num n) when Float.is_integer n -> Some (int_of_float n)
  | _ -> None

let str_field j name =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

let bool_field j name =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let parse_request line =
  match Json.parse line with
  | Error msg -> Error ("bad json: " ^ msg)
  | Ok j -> (
    match str_field j "op" with
    | None -> Error "missing op"
    | Some "ping" -> Ok Ping
    | Some "stats" -> Ok Stats
    | Some "quit" -> Ok Quit
    | Some "cancel" -> (
      match int_field j "id" with
      | Some id -> Ok (Cancel { id })
      | None -> Error "cancel: missing id")
    | Some "assert" -> (
      match str_field j "clause" with
      | Some clause ->
        let front = Option.value ~default:false (bool_field j "front") in
        Ok (Assert { clause; front })
      | None -> Error "assert: missing clause")
    | Some "retract" -> (
      match str_field j "clause" with
      | Some clause -> Ok (Retract { clause })
      | None -> Error "retract: missing clause")
    | Some "query" -> (
      match (int_field j "id", str_field j "goal") with
      | None, _ -> Error "query: missing id"
      | _, None -> Error "query: missing goal"
      | Some id, Some goal -> (
        match
          match str_field j "engine" with
          | None -> Ok None
          | Some s -> Result.map Option.some (Ace_core.Engine.kind_of_string s)
        with
        | Error msg -> Error msg
        | Ok engine ->
          Ok
            (Query
               {
                 id;
                 goal;
                 engine;
                 agents = int_field j "agents";
                 limit = int_field j "limit";
                 deadline_ms = int_field j "deadline_ms";
               })))
    | Some op -> Error (Printf.sprintf "unknown op %S" op))

type response =
  | Answer of {
      id : int;
      solutions : string list;
      cancelled : string option;
      time_ns : int;
    }
  | Failure of { id : int option; message : string }
  | Reply of (string * Json.t) list

let overloaded = "overloaded"

(* An answer is written straight into one buffer, sized from its
   solutions: the same bytes as [Json.to_string] of the object
   {"id", "ok", "solutions", "count", "cancelled"?, "time_ns"}, without
   building it. *)
let add_answer buf ~id ~solutions ~cancelled ~time_ns =
  Buffer.add_string buf "{\"id\":";
  Json.add_int buf id;
  Buffer.add_string buf ",\"ok\":true,\"solutions\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf s)
    solutions;
  Buffer.add_string buf "],\"count\":";
  Json.add_int buf (List.length solutions);
  (match cancelled with
   | Some why ->
     Buffer.add_string buf ",\"cancelled\":";
     Json.add_string buf why
   | None -> ());
  Buffer.add_string buf ",\"time_ns\":";
  Json.add_int buf time_ns;
  Buffer.add_char buf '}'

(* Room for the fixed fields and every solution with its quotes and
   comma; escapes, rare in printed terms, grow the buffer. *)
let answer_size solutions cancelled =
  List.fold_left (fun n s -> n + String.length s + 3) 96 solutions
  + match cancelled with Some why -> String.length why + 16 | None -> 0

let print_response = function
  | Answer { id; solutions; cancelled; time_ns } ->
    let buf = Buffer.create (answer_size solutions cancelled) in
    add_answer buf ~id ~solutions ~cancelled ~time_ns;
    Buffer.contents buf
  | Failure { id; message } ->
    Json.to_string
      (Json.Obj
         ((match id with Some id -> [ ("id", Json.int id) ] | None -> [])
         @ [ ("ok", Json.Bool false); ("error", Json.Str message) ]))
  | Reply fields -> Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))
