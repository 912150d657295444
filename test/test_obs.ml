(* Observability layer: JSON round-trips, trace ring-buffer semantics
   (overflow, per-domain monotone timestamps, no tearing under 4 real
   domains), the Chrome trace_event exporter, and metric histograms. *)

module Json = Ace_obs.Json
module Trace = Ace_obs.Trace
module Metrics = Ace_obs.Metrics
module Stats = Ace_machine.Stats

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("name", Json.Str "q\"uo\\te\n\t");
        ("n", Json.int 42);
        ("x", Json.Num 1.5);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.int 1; Json.int (-2); Json.Str "" ]) ]
  in
  let s = Json.to_string v in
  let v' = parse_ok s in
  Alcotest.(check string) "print-parse-print fixpoint" s (Json.to_string v');
  Alcotest.(check bool) "values equal" true (v = v')

let test_json_parse_misc () =
  (match Json.parse "[1, 2" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unterminated array must not parse");
  (match Json.parse "{\"a\": 1} trailing" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing garbage must not parse");
  let v = parse_ok {| {"a": [1, -2.5e1, "A"], "b": {"c": null}} |} in
  (match Json.member "a" v with
   | Some (Json.List [ Json.Num 1.0; Json.Num -25.0; Json.Str "A" ]) -> ()
   | _ -> Alcotest.fail "nested members");
  match Json.member "b" v with
  | Some b ->
    Alcotest.(check bool) "nested null" true (Json.member "c" b = Some Json.Null)
  | None -> Alcotest.fail "missing b"

(* [\uXXXX] escapes: exactly four hex digits ([_], a digit separator
   to [int_of_string], is refused), a surrogate pair is one code point
   of 4 UTF-8 bytes (not two 3-byte halves), and a lone surrogate is
   refused, in band through [Protocol.parse_request] as well. *)
let test_json_unicode_escapes () =
  let refused s =
    match Json.parse s with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "%s parsed as %s" s (Json.to_string v)
  in
  refused {|"\u00_1"|};
  refused {|"\u+041"|};
  refused {|"\u004"|};
  refused {|"\ud83d"|};
  refused {|"\ud83dx"|};
  refused {|"\ud83d\u0041"|};
  refused {|"\ude00"|};
  (match parse_ok {|"\ud83d\ude00"|} with
   | Json.Str s -> Alcotest.(check string) "one 4-byte code point" "\xF0\x9F\x98\x80" s
   | _ -> Alcotest.fail "string expected");
  (match parse_ok {|"a\u00e9\u20AC"|} with
   | Json.Str s -> Alcotest.(check string) "2- and 3-byte code points" "a\xC3\xA9\xE2\x82\xAC" s
   | _ -> Alcotest.fail "string expected");
  match Ace_server.Protocol.parse_request {|{"op":"query","goal":"p(\ud83d)"}|} with
  | Error msg ->
    Alcotest.(check bool) "names the lone surrogate" true
      (String.ends_with ~suffix:"lone surrogate in \\u escape" msg)
  | Ok _ -> Alcotest.fail "a lone surrogate must be refused in band"

(* The profiler JSON carries per-predicate nanosecond totals, so Num
   printing must be lossless for every integer up to 2^53 and must
   round-trip exponent-form floats. *)
let test_json_float_roundtrip () =
  let roundtrip v =
    match Json.parse (Json.to_string v) with
    | Ok v' -> v'
    | Error m -> Alcotest.failf "reparse %s: %s" (Json.to_string v) m
  in
  (* large integral timestamps, lossless up to 2^53 *)
  List.iter
    (fun n ->
      let v = Json.Num n in
      match roundtrip v with
      | Json.Num n' ->
        Alcotest.(check bool)
          (Printf.sprintf "lossless integral %.0f" n)
          true (n = n')
      | _ -> Alcotest.fail "number reparsed as non-number")
    [ 0.; 1.; 1.7e9; 1_702_000_123_456_789.; 2. ** 53.; -.(2. ** 53.);
      (2. ** 53.) -. 1. ];
  (* exponent-form and fractional floats *)
  List.iter
    (fun n ->
      match roundtrip (Json.Num n) with
      | Json.Num n' ->
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "float %g" n)
          n n'
      | _ -> Alcotest.fail "number reparsed as non-number")
    [ 1.5; -2.5e1; 6.02e23; 1e-9; 3.14159265358979 ];
  (* exponent syntax variants parse to the same value *)
  List.iter
    (fun (s, expect) ->
      match Json.parse s with
      | Ok (Json.Num n) ->
        Alcotest.(check (float 1e-9)) ("parse " ^ s) expect n
      | Ok _ -> Alcotest.failf "parse %s: not a number" s
      | Error m -> Alcotest.failf "parse %s: %s" s m)
    [ ("1e15", 1e15); ("2.5E-3", 2.5e-3); ("-1.25e+2", -125.) ]

(* ------------------------------------------------------------------ *)
(* Trace rings                                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_overflow () =
  let t = Trace.create ~capacity:8 () in
  let b = Trace.buffer t ~dom:0 in
  for i = 1 to 20 do
    Trace.record_at b ~ts:i Trace.Copy i
  done;
  let events = Trace.events t in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length events);
  Alcotest.(check int) "recorded counts everything" 20 (Trace.recorded t);
  Alcotest.(check int) "dropped = recorded - kept" 12 (Trace.dropped t);
  (* the *newest* events survive, in order *)
  Alcotest.(check (list int)) "newest survive"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.Trace.e_arg) events)

let test_ring_monotone_clamp () =
  let t = Trace.create ~capacity:16 () in
  let b = Trace.buffer t ~dom:3 in
  (* non-monotone input timestamps must come out strictly increasing *)
  List.iter (fun ts -> Trace.record_at b ~ts Trace.Steal 0) [ 5; 5; 3; 9; 1 ];
  let ts = List.map (fun e -> e.Trace.e_ts) (Trace.events t) in
  Alcotest.(check (list int)) "clamped strictly monotone" [ 5; 6; 7; 9; 10 ] ts;
  List.iter
    (fun e -> Alcotest.(check int) "domain tag" 3 e.Trace.e_dom)
    (Trace.events t)

(* Overflow combined with the monotone clamp: wrap the ring with
   deliberately non-monotone input stamps and assert drop-oldest
   semantics plus still-monotone surviving timestamps. *)
let test_ring_wrap_monotone () =
  let t = Trace.create ~capacity:8 () in
  let b = Trace.buffer t ~dom:0 in
  for i = 1 to 30 do
    (* stamps zig-zag: 10, 9, 12, 11, 14, ... *)
    let ts = (10 + i) - (2 * (i mod 2)) in
    Trace.record_at b ~ts Trace.Copy i
  done;
  let events = Trace.events t in
  Alcotest.(check int) "capacity kept after wrap" 8 (List.length events);
  Alcotest.(check int) "dropped oldest" 22 (Trace.dropped t);
  Alcotest.(check (list int)) "newest args survive in order"
    [ 23; 24; 25; 26; 27; 28; 29; 30 ]
    (List.map (fun e -> e.Trace.e_arg) events);
  ignore
    (List.fold_left
       (fun last e ->
         Alcotest.(check bool) "timestamps strictly monotone after wrap" true
           (e.Trace.e_ts > last);
         e.Trace.e_ts)
       min_int events)

let test_disabled_noop () =
  let b = Trace.buffer Trace.disabled ~dom:0 in
  for i = 1 to 1000 do
    Trace.record b Trace.Copy i
  done;
  Alcotest.(check int) "disabled records nothing" 0 (Trace.recorded Trace.disabled);
  Alcotest.(check bool) "now_ns works on null" true (Trace.now_ns b >= 0)

(* Four real domains hammer their own rings concurrently; after joining,
   every buffer must hold exactly its own domain's events (no tearing:
   kind and arg were written by the same recorder) in per-domain recording
   order. *)
let test_concurrent_domains () =
  let per_domain = 5_000 and doms = 4 in
  let t = Trace.create ~capacity:1024 () in
  let buffers = Array.init doms (fun d -> Trace.buffer t ~dom:d) in
  let worker d () =
    let b = buffers.(d) in
    for i = 0 to per_domain - 1 do
      (* the arg encodes (domain, seq) so a torn or misrouted write is
         detectable after the merge *)
      Trace.record b Trace.Copy ((d * per_domain) + i)
    done
  in
  let spawned = Array.init doms (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join spawned;
  Alcotest.(check int) "all events counted" (doms * per_domain) (Trace.recorded t);
  Alcotest.(check int) "overflow accounted"
    (Trace.recorded t - (doms * 1024))
    (Trace.dropped t);
  let events = Trace.events t in
  Alcotest.(check int) "kept = capacity per domain" (doms * 1024)
    (List.length events);
  let last_ts = Array.make doms min_int in
  let last_arg = Array.make doms min_int in
  List.iter
    (fun e ->
      let d = e.Trace.e_dom in
      Alcotest.(check bool) "kind preserved" true (e.Trace.e_kind = Trace.Copy);
      (* arg belongs to this domain's range: the write was not torn *)
      Alcotest.(check bool) "arg in owner range" true
        (e.Trace.e_arg / per_domain = d);
      (* per-domain ordering: sequence numbers are authoritative; the
         wall clock may be coarse enough for equal stamps, so assert
         order, never gaps *)
      Alcotest.(check bool) "ts non-decreasing per domain" true
        (e.Trace.e_ts >= last_ts.(d));
      Alcotest.(check bool) "seq increasing per domain" true
        (e.Trace.e_arg > last_arg.(d));
      last_ts.(d) <- e.Trace.e_ts;
      last_arg.(d) <- e.Trace.e_arg)
    events

(* ------------------------------------------------------------------ *)
(* Chrome exporter                                                     *)
(* ------------------------------------------------------------------ *)

(* A small deterministic trace covering spans, instants, and an unmatched
   span end (from a wrapped ring) — the golden shape the exporter must
   emit: valid JSON, one thread per domain, balanced B/E per track. *)
let golden_trace () =
  let t = Trace.create ~capacity:64 () in
  let b0 = Trace.buffer t ~dom:0 and b1 = Trace.buffer t ~dom:1 in
  Trace.record_at b0 ~ts:1_000 Trace.Task_start 7;
  Trace.record_at b0 ~ts:2_000 Trace.Copy 120;
  Trace.record_at b0 ~ts:3_000 Trace.Task_finish 7;
  Trace.record_at b1 ~ts:1_500 Trace.Idle_begin 0;
  Trace.record_at b1 ~ts:2_500 Trace.Steal 0;
  Trace.record_at b1 ~ts:2_600 Trace.Idle_end 0;
  Trace.record_at b1 ~ts:2_700 Trace.Task_finish 9 (* no matching start *);
  t

let test_chrome_export () =
  let t = golden_trace () in
  let v = parse_ok (Trace.to_chrome_json t) in
  let events =
    match Json.member "traceEvents" v with
    | Some l -> Option.get (Json.to_list l)
    | None -> Alcotest.fail "no traceEvents"
  in
  let field name e =
    match Json.member name e with
    | Some (Json.Str s) -> s
    | Some (Json.Num n) -> string_of_float n
    | _ -> ""
  in
  let phases tid ph =
    List.filter (fun e -> field "ph" e = ph && field "tid" e = string_of_float (float_of_int tid)) events
  in
  (* one metadata thread_name per domain *)
  List.iter
    (fun tid ->
      Alcotest.(check int)
        (Printf.sprintf "thread_name for domain %d" tid)
        1
        (List.length
           (List.filter (fun e -> field "name" e = "thread_name") (phases tid "M"))))
    [ 0; 1 ];
  (* balanced spans per track: B count = E count *)
  List.iter
    (fun tid ->
      Alcotest.(check int)
        (Printf.sprintf "balanced spans on tid %d" tid)
        (List.length (phases tid "B"))
        (List.length (phases tid "E")))
    [ 0; 1 ];
  (* the unmatched Task_finish on dom 1 was dropped, not emitted as E *)
  Alcotest.(check int) "dom1 task spans" 0
    (List.length (List.filter (fun e -> field "name" e = "task") (phases 1 "B")));
  (* instants carry their arg *)
  let copy =
    List.find (fun e -> field "name" e = "copy") events
  in
  (match Json.member "args" copy with
   | Some args ->
     Alcotest.(check bool) "copy cells arg" true
       (Json.member "n" args = Some (Json.int 120))
   | None -> Alcotest.fail "copy instant has no args");
  (* timestamps are microseconds: 2000 ns -> 2 us *)
  match Json.member "ts" copy with
  | Some (Json.Num us) -> Alcotest.(check (float 1e-9)) "ns->us" 2.0 us
  | _ -> Alcotest.fail "copy has no ts"

let test_jsonl_export () =
  let t = golden_trace () in
  let lines =
    String.split_on_char '\n' (String.trim (Trace.to_jsonl t))
  in
  Alcotest.(check int) "one line per event" 7 (List.length lines);
  List.iter (fun line -> ignore (parse_ok line)) lines

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_hist () =
  let h = Metrics.hist_create () in
  List.iter (Metrics.hist_add h) [ 1; 2; 3; 4; 1000; 0 ];
  Alcotest.(check int) "n" 6 h.Metrics.h_n;
  Alcotest.(check int) "sum" 1010 h.Metrics.h_sum;
  Alcotest.(check int) "max" 1000 h.Metrics.h_max;
  Alcotest.(check (float 1e-6)) "mean" (1010.0 /. 6.0) (Metrics.hist_mean h);
  (* log2 buckets by bit count: <=0 | 1 | 2..3 | 4..7 | 512..1023 *)
  Alcotest.(check (list (pair int int))) "buckets"
    [ (0, 1); (1, 1); (3, 2); (7, 1); (1023, 1) ]
    (Metrics.hist_buckets h);
  let h2 = Metrics.hist_create () in
  Metrics.hist_add h2 4;
  Metrics.hist_merge_into ~into:h2 h;
  Alcotest.(check int) "merged n" 7 h2.Metrics.h_n;
  Alcotest.(check int) "merged max" 1000 h2.Metrics.h_max

let test_metrics_total_and_util () =
  let m = Metrics.create ~domains:2 in
  let s0 = Metrics.stats m 0 and s1 = Metrics.stats m 1 in
  s0.Stats.solutions <- 2;
  s1.Stats.solutions <- 3;
  s0.Stats.steals <- 1;
  (Metrics.shard m 0).Metrics.s_busy_ns <- 900;
  (Metrics.shard m 0).Metrics.s_idle_ns <- 100;
  let total = Metrics.total m in
  Alcotest.(check int) "summed solutions" 5 total.Stats.solutions;
  Alcotest.(check bool) "total is fresh" true
    (total != s0 && total != s1);
  match Metrics.utilization m with
  | [ u0; u1 ] ->
    Alcotest.(check (float 1e-6)) "busy fraction" 0.9 u0.Metrics.u_busy_frac;
    Alcotest.(check int) "steals" 1 u0.Metrics.u_steals;
    Alcotest.(check int) "solutions" 3 u1.Metrics.u_solutions
  | _ -> Alcotest.fail "expected two domains"

let test_metrics_json () =
  let m = Metrics.create ~domains:2 in
  (Metrics.stats m 1).Stats.copies <- 7;
  let v = parse_ok (Json.to_string (Metrics.to_json m)) in
  (match Json.member "total" v with
   | Some total ->
     Alcotest.(check bool) "total.copies" true
       (Json.member "copies" total = Some (Json.int 7))
   | None -> Alcotest.fail "no total");
  match Json.member "shards" v with
  | Some l ->
    Alcotest.(check int) "two shards" 2
      (List.length (Option.get (Json.to_list l)))
  | None -> Alcotest.fail "no shards"

let suite =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse misc" `Quick test_json_parse_misc;
    Alcotest.test_case "json float roundtrip" `Quick test_json_float_roundtrip;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
    Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
    Alcotest.test_case "ring monotone clamp" `Quick test_ring_monotone_clamp;
    Alcotest.test_case "ring wrap stays monotone" `Quick
      test_ring_wrap_monotone;
    Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
    Alcotest.test_case "concurrent domains" `Quick test_concurrent_domains;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
    Alcotest.test_case "histograms" `Quick test_hist;
    Alcotest.test_case "metrics total+util" `Quick test_metrics_total_and_util;
    Alcotest.test_case "metrics json" `Quick test_metrics_json ]
