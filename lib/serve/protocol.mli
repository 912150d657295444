(** The ace_serve wire protocol: one JSON object per line, both ways.

    Requests:
    {v
    {"op":"query","id":1,"goal":"path(a,X)","engine":"par",
     "agents":4,"limit":10,"deadline_ms":500}
    {"op":"cancel","id":1}
    {"op":"assert","clause":"edge(x,y)","front":false}
    {"op":"retract","clause":"edge(x,y)"}
    {"op":"ping"}   {"op":"stats"}   {"op":"quit"}
    v}

    Responses (every request gets exactly one):
    {v
    {"id":1,"ok":true,"solutions":["path(a,b)"],"count":1,
     "cancelled":"deadline","time_ns":12345}
    {"id":1,"ok":false,"error":"overloaded"}
    {"ok":true,"pong":true}
    v}

    [cancelled] is absent from completed queries; [solutions] of a
    cancelled query are the ones completed before the abort.  The
    [error] string ["overloaded"] is the admission-control backpressure
    signal — the client should back off and retry. *)

type request =
  | Query of {
      id : int;  (** client-chosen; echoed back, names the query to [Cancel] *)
      goal : string;
      engine : Ace_core.Engine.kind option;  (** server default when absent *)
      agents : int option;
      limit : int option;
          (** at most this many solutions; 0 answers none without
              searching, a negative value is an in-band error *)
      deadline_ms : int option;
          (** cancel the query this many ms after it starts; a negative
              value is an in-band error *)
    }
  | Cancel of { id : int }
  | Assert of { clause : string; front : bool }
  | Retract of { clause : string }
  | Ping
  | Stats
  | Quit

(** Parses one request line. *)
val parse_request : string -> (request, string) result

type response =
  | Answer of {
      id : int;
      solutions : string list;
      cancelled : string option;
      time_ns : int;
    }
  | Failure of { id : int option; message : string }
  | Reply of (string * Ace_obs.Json.t) list
      (** generic [{"ok":true, ...fields}] for the non-query ops *)

(** One line, without the trailing newline. *)
val print_response : response -> string

(** The backpressure error message. *)
val overloaded : string
