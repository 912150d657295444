(* lib/serve: protocol framing, sessions, and the socket server. *)

module Cancel = Ace_core.Cancel
module Config = Ace_machine.Config
module Engine = Ace_core.Engine
module Json = Ace_obs.Json
module Protocol = Ace_server.Protocol
module Server = Ace_server.Server
module Session = Ace_server.Session

let base_program =
  {|
edge(a, b).
edge(b, c).
edge(a, c).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
gen(z).
gen(s(N)) :- gen(N).
spin :- gen(N), never(N).
never(none).
|}

let prepared = lazy (Engine.prepare_string base_program)

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected session error: %s" m

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  (match
     Protocol.parse_request
       {|{"op":"query","id":3,"goal":"p(X)","engine":"par","limit":5}|}
   with
  | Ok (Protocol.Query { id; goal; engine; limit; _ }) ->
    Alcotest.(check int) "id" 3 id;
    Alcotest.(check string) "goal" "p(X)" goal;
    Alcotest.(check bool) "engine" true (engine = Some Engine.Par_or);
    Alcotest.(check (option int)) "limit" (Some 5) limit
  | Ok _ -> Alcotest.fail "parsed to the wrong request"
  | Error m -> Alcotest.fail m);
  (match Protocol.parse_request {|{"op":"assert","clause":"p(9)"}|} with
  | Ok (Protocol.Assert { clause; front }) ->
    Alcotest.(check string) "clause" "p(9)" clause;
    Alcotest.(check bool) "back by default" false front
  | _ -> Alcotest.fail "assert did not parse");
  (match Protocol.parse_request {|{"op":"cancel","id":7}|} with
  | Ok (Protocol.Cancel { id }) -> Alcotest.(check int) "cancel id" 7 id
  | _ -> Alcotest.fail "cancel did not parse");
  Alcotest.(check bool) "ping" true (Protocol.parse_request {|{"op":"ping"}|} = Ok Protocol.Ping);
  (match Protocol.parse_request {|{"op":"query","goal":"p(X)"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "query without id must be rejected");
  match Protocol.parse_request "{nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad json must be rejected"

(* ------------------------------------------------------------------ *)
(* The reply writer                                                    *)
(* ------------------------------------------------------------------ *)

(* The JSON printer as it was before strings and numbers were written
   straight into the buffer (one escape per character, [Printf] for
   every number): the reference that the reply writer and
   [Json.to_string] must match byte for byte. *)
let reference_json v =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let rec add = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
    | Json.Num f ->
      Buffer.add_string buf
        (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
         else Printf.sprintf "%.17g" f)
    | Json.Str s -> str s
    | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char buf ','; add v) items;
      Buffer.add_char buf ']'
    | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          str k;
          Buffer.add_char buf ':';
          add v)
        fields;
      Buffer.add_char buf '}'
  in
  add v;
  Buffer.contents buf

(* The object an answer was printed from before the reply writer. *)
let answer_object ~id ~solutions ~cancelled ~time_ns =
  Json.Obj
    ([ ("id", Json.int id); ("ok", Json.Bool true);
       ("solutions", Json.List (List.map (fun s -> Json.Str s) solutions));
       ("count", Json.int (List.length solutions)) ]
    @ (match cancelled with Some why -> [ ("cancelled", Json.Str why) ] | None -> [])
    @ [ ("time_ns", Json.int time_ns) ])

(* Around the 1e15 switch from digits to "%.17g", and the ends of int. *)
let edge_ints =
  [ 0; -1; 999_999_999_999_999; -999_999_999_999_999; 1_000_000_000_000_000;
    -1_000_000_000_000_000; min_int; max_int ]

let answer_gen =
  QCheck2.Gen.(
    let char =
      frequency
        [ (4, char_range ' ' '~');
          (2, oneofl [ '"'; '\\'; '\000'; '\127'; '\n'; '\r'; '\t' ]);
          (1, char_range '\000' '\031');
          (1, char_range '\128' '\255') ]
    in
    let solution =
      frequency
        [ (6, string_size ~gen:char (int_range 0 16));
          (1, oneofl [ ""; "caf\xc3\xa9"; "p('\xe2\x86\x92',\"\\\")" ]) ]
    in
    let int = frequency [ (1, oneofl edge_ints); (1, int) ] in
    tup4 int (list_size (int_range 0 6) solution)
      (option (oneof [ oneofl [ "deadline"; "requested"; "budget" ]; solution ]))
      int)

let prop_answer_bytes =
  Test_util.qcheck ~count:500 "print_response (Answer ...) = the parent's bytes"
    answer_gen (fun (id, solutions, cancelled, time_ns) ->
      let want = reference_json (answer_object ~id ~solutions ~cancelled ~time_ns) in
      let got =
        Protocol.print_response (Protocol.Answer { id; solutions; cancelled; time_ns })
      in
      let via_json = Json.to_string (answer_object ~id ~solutions ~cancelled ~time_ns) in
      (got = want && via_json = want)
      || QCheck2.Test.fail_reportf "want %S@.reply %S@.Json.to_string %S" want got via_json)

(* The text codecs allocate per token and per reply, not per character:
   [Gc.minor_words] of one call after a warm-up call, pinned a little
   above what it reads (60 and 162 words).  With an option per character
   read and the reply built as a JSON tree, these read 282 and 808. *)
let words f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () -. w0)

let test_codec_words () =
  let line = {|{"op":"query","id":4242,"goal":"hop3(k1234, W)"}|} in
  let solutions = List.init 27 (fun i -> Printf.sprintf "hop3(k1234,k%d)" ((i * 37) + 5)) in
  let reply =
    Protocol.Answer { id = 4242; solutions; cancelled = None; time_ns = 14_000 }
  in
  List.iter
    (fun (what, pin, n) ->
      if n > pin then Alcotest.failf "%s: %d minor words, pinned at %d" what n pin)
    [ ("Json.parse of a query line", 70, words (fun () -> Json.parse line));
      ("print_response of a 27-answer reply", 175,
       words (fun () -> Protocol.print_response reply)) ]

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let test_session_query () =
  let s = Session.create (Lazy.force prepared) in
  let a = ok (Session.query s "path(a, X)") in
  Alcotest.(check (list string)) "solutions"
    [ "path(a,b)"; "path(a,c)"; "path(a,c)" ]
    (List.sort String.compare a.Session.solutions);
  Alcotest.(check bool) "not cancelled" true (a.Session.cancelled = None);
  let a = ok (Session.query ~limit:1 s "path(a, X)") in
  Alcotest.(check int) "limit honoured" 1 (List.length a.Session.solutions)

let test_session_overlay_ops () =
  let p = Lazy.force prepared in
  let s1 = Session.create p and s2 = Session.create p in
  ok (Session.assert_clause s1 "edge(c, d)");
  let a = ok (Session.query s1 "path(c, X)") in
  Alcotest.(check (list string)) "asserted clause reachable" [ "path(c,d)" ]
    a.Session.solutions;
  let a = ok (Session.query s2 "path(c, X)") in
  Alcotest.(check int) "other session isolated" 0
    (List.length a.Session.solutions);
  Alcotest.(check bool) "retract removes it" true
    (ok (Session.retract_clause s1 "edge(c, d)"));
  let a = ok (Session.query s1 "path(c, X)") in
  Alcotest.(check int) "retracted" 0 (List.length a.Session.solutions)

let test_session_errors () =
  let s = Session.create (Lazy.force prepared) in
  (match Session.query s "nosuch(X)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown predicate must answer an error");
  (match Session.query s "p(" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error must answer an error");
  match Session.assert_clause s "p(X) :-" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed clause must answer an error"

let loop_prepared =
  lazy (Engine.prepare_string (base_program ^ "loop :- loop.\n"))

(* A simulator's step cap (about 0.5 s of [loop]) and a domain request
   outside the per-run budget come back as errors, and the session
   serves the next query.  No run here spawns more than 2 domains. *)
let test_session_engine_failures () =
  let s = Session.create (Lazy.force loop_prepared) in
  (match Session.query ~engine:Engine.And_parallel s "loop" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a step-cap overrun must answer an error");
  let a = ok (Session.query s "path(a, X)") in
  Alcotest.(check int) "the session still serves" 3
    (List.length a.Session.solutions);
  List.iter
    (fun agents ->
      match Session.query ~engine:Engine.Par_or ~agents s "path(a, X)" with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "par with %d agents must be refused" agents)
    [ 0; Engine.max_par_agents + 1; 300 ];
  let a = ok (Session.query ~engine:Engine.Par_or ~agents:2 s "path(a, X)") in
  Alcotest.(check int) "par within the budget runs" 3
    (List.length a.Session.solutions)

let test_session_deadline () =
  let s = Session.create (Lazy.force prepared) in
  let a = ok (Session.query ~deadline_ms:50 s "spin") in
  Alcotest.(check bool) "cancelled on deadline" true
    (a.Session.cancelled = Some Cancel.Deadline);
  Alcotest.(check int) "no solutions" 0 (List.length a.Session.solutions)

let test_session_cancel_inflight () =
  let s = Session.create (Lazy.force prepared) in
  let result = ref (Error "not run") in
  let th = Thread.create (fun () -> result := Session.query ~id:1 s "spin") () in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Session.inflight s = 0 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check int) "one in flight" 1 (Session.inflight s);
  Alcotest.(check bool) "cancel hits" true (Session.cancel s 1);
  Thread.join th;
  (match !result with
  | Ok a ->
    Alcotest.(check bool) "requested" true
      (a.Session.cancelled = Some Cancel.Requested)
  | Error m -> Alcotest.failf "cancelled query errored: %s" m);
  Alcotest.(check int) "unregistered" 0 (Session.inflight s);
  Alcotest.(check bool) "cancel misses now" false (Session.cancel s 1)

(* Overlay semantics, differentially: seeded random assert, asserta and
   retract sequences on a session must answer every query exactly as a
   fresh prepare of the program the operations describe.  The model is
   that program: p/2's clauses in source order ([asserta] prepends,
   [assertz] appends, [retract] drops the first clause unifying with
   the pattern).  Facts may hold distinct variables; the sentinel
   [p(zz, zz)] keeps p/2 defined and no pattern can match it. *)

type arg = Const of string | Any

let show_fact (x, y) =
  let show = function Const c -> c | Any -> "_" in
  Printf.sprintf "p(%s, %s)" (show x) (show y)

let unifies (x, y) (x', y') =
  let one a b = match a, b with Const c, Const c' -> c = c' | _ -> true in
  one x x' && one y y'

let overlay_rules =
  {|p(zz, zz).
r(X, Y) :- p(X, V), p(Y, V).
q(X) :- p(X, _).
|}

let test_session_overlay_differential () =
  let rng = Random.State.make [| 0x0e71a7 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let keys = [ "a"; "b"; "c" ] and values = [ "0"; "1"; "2"; "3" ] in
  let fact () =
    let arg l = if Random.State.int rng 6 = 0 then Any else Const (pick l) in
    (arg keys, arg values)
  in
  let pattern () =
    (* at least one constant, so the sentinel never matches *)
    match Random.State.int rng 3 with
    | 0 -> (Const (pick keys), Any)
    | 1 -> (Any, Const (pick values))
    | _ -> (Const (pick keys), Const (pick values))
  in
  let queries = [ "p(X, Y)"; "p(a, Y)"; "p(X, 2)"; "q(X)"; "r(b, Y)" ] in
  let answers_of terms =
    List.sort String.compare (List.map Ace_term.Pp.to_canonical_string terms)
  in
  for round = 1 to 40 do
    let base = List.init (Random.State.int rng 6) (fun _ -> fact ()) in
    let program facts =
      String.concat "" (List.map (fun f -> show_fact f ^ ".\n") facts)
      ^ overlay_rules
    in
    let compile = round mod 2 = 0 in
    let config = { Config.default with Config.compile } in
    let s = Session.create ~config (Engine.prepare_string (program base)) in
    let model = ref base in
    for step = 1 to 25 do
      (match Random.State.int rng 4 with
       | 0 ->
         let f = fact () in
         ok (Session.assert_clause ~front:true s (show_fact f));
         model := f :: !model
       | 1 | 2 ->
         let f = fact () in
         ok (Session.assert_clause s (show_fact f));
         model := !model @ [ f ]
       | _ ->
         let pat = pattern () in
         let rec drop = function
           | [] -> (false, [])
           | f :: rest when unifies f pat -> (true, rest)
           | f :: rest ->
             let hit, rest = drop rest in
             (hit, f :: rest)
         in
         let hit, rest = drop !model in
         Alcotest.(check bool)
           (Printf.sprintf "round %d step %d: retract %s" round step
              (show_fact pat))
           hit
           (ok (Session.retract_clause s (show_fact pat)));
         model := rest);
      let fresh = Engine.prepare_string (program !model) in
      List.iter
        (fun query ->
          let want =
            (Engine.run Engine.Sequential config fresh
               (Ace_lang.Program.parse_query query).Ace_lang.Program.goal)
              .Engine.solutions
          in
          let got = (ok (Session.query s query)).Session.terms in
          Alcotest.(check (list string))
            (Printf.sprintf "round %d step %d: %s" round step query)
            (answers_of want) (answers_of got))
        queries
    done;
    Alcotest.(check int)
      (Printf.sprintf "round %d: clause count" round)
      (List.length !model + 3)
      (Ace_lang.Database.total_clauses (Session.db s))
  done

(* A session that asserts and retracts its own clause leaves nothing
   behind: reads do not slow down with the number of cycles. *)
let test_session_retract_own () =
  let p = Lazy.force prepared in
  let s = Session.create p in
  for _ = 1 to 1000 do
    ok (Session.assert_clause s "edge(c, d)");
    Alcotest.(check bool) "retracted" true
      (ok (Session.retract_clause s "edge(c, d)"))
  done;
  Alcotest.(check int) "no clauses left over"
    (Ace_lang.Database.total_clauses (Engine.database p))
    (Ace_lang.Database.total_clauses (Session.db s));
  Alcotest.(check int) "no tombstones" 0
    (Ace_lang.Database.tombstones (Session.db s));
  Alcotest.(check bool) "a base clause is tombstoned" true
    (ok (Session.retract_clause s "edge(a, b)"));
  Alcotest.(check int) "one tombstone" 1
    (Ace_lang.Database.tombstones (Session.db s));
  let a = ok (Session.query s "path(a, X)") in
  Alcotest.(check int) "base answers less the retracted edge" 1
    (List.length a.Session.solutions)

(* ------------------------------------------------------------------ *)
(* The socket server                                                   *)
(* ------------------------------------------------------------------ *)

let roundtrip ic oc req =
  output_string oc (Json.to_string req);
  output_char oc '\n';
  flush oc;
  match Json.parse (input_line ic) with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad response json: %s" m

let num name j =
  match Json.member name j with
  | Some (Json.Num n) -> int_of_float n
  | _ -> Alcotest.failf "response lacks %s: %s" name (Json.to_string j)

let test_server_roundtrip () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ace_test_serve_%d.sock" (Unix.getpid ()))
  in
  let srv =
    Server.create ~workers:2 ~listen:(Unix.ADDR_UNIX sock)
      (Lazy.force prepared)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let j = roundtrip ic oc (Json.Obj [ ("op", Json.Str "ping") ]) in
  Alcotest.(check bool) "pong" true (Json.member "pong" j = Some (Json.Bool true));
  let j =
    roundtrip ic oc
      (Json.Obj
         [ ("op", Json.Str "query"); ("id", Json.int 1);
           ("goal", Json.Str "path(a, X)") ])
  in
  Alcotest.(check int) "three paths" 3 (num "count" j);
  ignore
    (roundtrip ic oc
       (Json.Obj [ ("op", Json.Str "assert"); ("clause", Json.Str "edge(c, d)") ]));
  let j =
    roundtrip ic oc
      (Json.Obj
         [ ("op", Json.Str "query"); ("id", Json.int 2);
           ("goal", Json.Str "path(c, X)") ])
  in
  Alcotest.(check int) "asserted over the wire" 1 (num "count" j);
  let j =
    roundtrip ic oc
      (Json.Obj
         [ ("op", Json.Str "query"); ("id", Json.int 3);
           ("goal", Json.Str "spin"); ("deadline_ms", Json.int 50) ])
  in
  Alcotest.(check bool) "wire deadline" true
    (Json.member "cancelled" j = Some (Json.Str "deadline"));
  (* an answer far wider than 78 columns arrives as one line *)
  let wide_of f = Printf.sprintf "wide(%s)" (String.concat "," (List.init 20 f)) in
  let wide = wide_of (Printf.sprintf "item_%d") in
  ignore
    (roundtrip ic oc
       (Json.Obj [ ("op", Json.Str "assert"); ("clause", Json.Str wide) ]));
  let j =
    roundtrip ic oc
      (Json.Obj
         [ ("op", Json.Str "query"); ("id", Json.int 4);
           ("goal", Json.Str (wide_of (Printf.sprintf "X%d"))) ])
  in
  Alcotest.(check (option (list string))) "wide answer on one line"
    (Some [ wide ])
    (Option.map
       (List.filter_map (function Json.Str s -> Some s | _ -> None))
       (Option.bind (Json.member "solutions" j) Json.to_list));
  let j = roundtrip ic oc (Json.Obj [ ("op", Json.Str "stats") ]) in
  Alcotest.(check int) "served" 4 (num "served" j);
  Alcotest.(check int) "one connection" 1 (num "connections" j);
  let j = roundtrip ic oc (Json.Obj [ ("op", Json.Str "quit") ]) in
  Alcotest.(check bool) "bye" true (Json.member "bye" j = Some (Json.Bool true));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.drain srv;
  Server.wait srv

(* The same failures over the wire, on a one-worker server: each
   answers an in-band error, and the one worker then serves a normal
   query and has released its admission slot.  The solution limit has
   one rule on every engine: 0 answers no solutions, a negative limit an
   in-band error. *)
let test_server_failures_in_band () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ace_test_fail_%d.sock" (Unix.getpid ()))
  in
  let srv =
    Server.create ~workers:1 ~listen:(Unix.ADDR_UNIX sock)
      (Lazy.force loop_prepared)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let query id goal extra =
    roundtrip ic oc
      (Json.Obj
         ([ ("op", Json.Str "query"); ("id", Json.int id);
            ("goal", Json.Str goal) ]
         @ extra))
  in
  let refused ?msg id j =
    Alcotest.(check bool)
      (Printf.sprintf "query %d answers an error" id)
      true
      (Json.member "ok" j = Some (Json.Bool false)
      && Json.member "error" j <> None);
    Alcotest.(check int) (Printf.sprintf "error carries id %d" id) id (num "id" j);
    Option.iter
      (fun msg ->
        Alcotest.(check (option string))
          (Printf.sprintf "query %d names the wire field" id)
          (Some msg)
          (match Json.member "error" j with
          | Some (Json.Str s) -> Some s
          | _ -> None))
      msg
  in
  refused 1
    (query 1 "path(a, X)" [ ("engine", Json.Str "par"); ("agents", Json.int 300) ]);
  refused 2 (query 2 "loop" [ ("engine", Json.Str "and") ]);
  List.iteri
    (fun i engine ->
      let limit n = [ ("engine", Json.Str engine); ("limit", Json.int n) ] in
      Alcotest.(check int) (engine ^ ": limit 0 answers none") 0
        (num "count" (query (10 + (2 * i)) "path(a, X)" (limit 0)));
      refused ~msg:"limit must be >= 0 (got -1)" (11 + (2 * i))
        (query (11 + (2 * i)) "path(a, X)" (limit (-1)));
      refused ~msg:"agents must be >= 1 (got 0)" (20 + i)
        (query (20 + i) "path(a, X)"
           [ ("engine", Json.Str engine); ("agents", Json.int 0) ]);
      refused ~msg:"deadline_ms must be >= 0 (got -5)" (30 + i)
        (query (30 + i) "path(a, X)"
           [ ("engine", Json.Str engine); ("deadline_ms", Json.int (-5)) ]))
    [ "seq"; "and"; "or"; "par" ];
  Alcotest.(check int) "the worker still serves" 3
    (num "count" (query 3 "path(a, X)" []));
  let j = roundtrip ic oc (Json.Obj [ ("op", Json.Str "stats") ]) in
  Alcotest.(check int) "no admission slot leaked" 0 (num "active" j);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.drain srv;
  Server.wait srv

let test_server_drain_cancels () =
  (* drain mid-query: the in-flight query answers as cancelled and the
     server shuts down within a bounded interval *)
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ace_test_drain_%d.sock" (Unix.getpid ()))
  in
  let srv =
    Server.create ~workers:1 ~listen:(Unix.ADDR_UNIX sock)
      (Lazy.force prepared)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("op", Json.Str "query"); ("id", Json.int 1);
            ("goal", Json.Str "spin") ]));
  output_char oc '\n';
  flush oc;
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  Server.drain srv;
  let j =
    match Json.parse (input_line ic) with
    | Ok j -> j
    | Error m -> Alcotest.failf "bad drain response: %s" m
  in
  Server.wait srv;
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Alcotest.(check bool) "cancelled by drain" true
    (Json.member "cancelled" j = Some (Json.Str "requested"));
  Alcotest.(check bool) "drain bounded" true (ms < 5000.0);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock);
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* A peer that withholds the newline past the 1 MiB line cap gets one
   in-band error and is hung up on; the server keeps serving others. *)
let test_server_line_cap () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ace_test_cap_%d.sock" (Unix.getpid ()))
  in
  let srv =
    Server.create ~workers:1 ~listen:(Unix.ADDR_UNIX sock)
      (Lazy.force prepared)
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let fd = connect () in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc (String.make ((1 lsl 20) + 1) 'x');
  flush oc;
  (* the connection stays open: a reply must come without a newline *)
  (match Unix.select [ fd ] [] [] 10.0 with
  | [], _, _ -> Alcotest.fail "no reply to an over-long line"
  | _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let j =
    match Json.parse (input_line ic) with
    | Ok j -> j
    | Error m -> Alcotest.failf "bad response json: %s" m
  in
  Alcotest.(check bool) "in-band error" true
    (Json.member "ok" j = Some (Json.Bool false));
  Alcotest.(check bool) "then hung up" true
    (match input_line ic with _ -> false | exception End_of_file -> true);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let fd = connect () in
  let j =
    roundtrip
      (Unix.in_channel_of_descr fd)
      (Unix.out_channel_of_descr fd)
      (Json.Obj
         [ ("op", Json.Str "query"); ("id", Json.int 1);
           ("goal", Json.Str "path(a, X)") ])
  in
  Alcotest.(check int) "a new connection is served" 3 (num "count" j);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.drain srv;
  Server.wait srv

let suite =
  [
    Alcotest.test_case "protocol: parse requests" `Quick test_protocol_parse;
    prop_answer_bytes;
    Alcotest.test_case "protocol: codecs allocate per token" `Quick test_codec_words;
    Alcotest.test_case "session: query" `Quick test_session_query;
    Alcotest.test_case "session: overlay assert/retract" `Quick
      test_session_overlay_ops;
    Alcotest.test_case "session: errors stay in-band" `Quick
      test_session_errors;
    Alcotest.test_case "session: engine failures stay in-band" `Quick
      test_session_engine_failures;
    Alcotest.test_case "session: deadline" `Quick test_session_deadline;
    Alcotest.test_case "session: cancel in flight" `Quick
      test_session_cancel_inflight;
    Alcotest.test_case "session: overlay matches a fresh prepare" `Quick
      test_session_overlay_differential;
    Alcotest.test_case "session: retracting own clauses leaves none" `Quick
      test_session_retract_own;
    Alcotest.test_case "server: socket round trip" `Quick
      test_server_roundtrip;
    Alcotest.test_case "server: failures answer in band" `Quick
      test_server_failures_in_band;
    Alcotest.test_case "server: drain cancels in-flight" `Quick
      test_server_drain_cancels;
    Alcotest.test_case "server: over-long request line" `Quick
      test_server_line_cap;
  ]
