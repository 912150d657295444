(* The bench tool's one data format and one timing policy.

   A timed row is read the way perfbench reads an in-cache program
   (Stat, perfbench/stat.ml compiled into this library): each run is
   followed by the calibration loop, and its time is scaled to full host
   speed by the slower loop reading around it (exponent 1.0).  A row
   keeps the median and interquartile range of its samples, so a file
   regenerated another day reads the same code the same way instead of
   following the host's speed. *)

module Json = Ace_obs.Json
module Engine = Ace_core.Engine

type key = {
  suite : string;
  benchmark : string;
  engine : string;
  domains : int;
  config : string;
}

type row = { key : key; metric : string; median : float; iqr : float; n : int }

let timed key metric values =
  let a = Stat.sorted_copy values in
  let q = Stat.quantile_sorted a in
  { key; metric; median = q 0.5; iqr = q 0.75 -. q 0.25; n = Array.length a }

let count key metric values =
  if Array.for_all (Float.equal values.(0)) values then
    { key; metric; median = values.(0); iqr = 0.; n = 1 }
  else timed key metric values

(* 31 samples give a median and quartiles that a few slow runs do not
   move; a row whose runs are slow (the simulators' tabled rows take
   0.2-0.3 s a run) stops after 1 s of sampling, but never under 5. *)
let max_samples = 31
let min_samples = 5
let budget_ns = 1_000_000_000

let run key f metrics =
  let start = Stat.now_ns () in
  let cal = ref (Stat.calibrate_ns ()) in
  let times = ref [] and values = List.map (fun _ -> ref []) metrics in
  while
    List.length !times < max_samples
    && (List.length !times < min_samples || Stat.now_ns () - start < budget_ns)
  do
    let r = f () in
    let c = Stat.calibrate_ns () in
    let op =
      { Stat.ms = Stat.ms_of_ns r.Engine.wall_ns;
        cal = Stat.ms_of_ns (max !cal c);
        e = 1.0 }
    in
    times := Stat.at_full_speed op :: !times;
    List.iter2 (fun (_, g) vs -> vs := g r :: !vs) metrics values;
    cal := c
  done;
  timed key "wall_ms" (Array.of_list !times)
  :: List.map2
       (fun (metric, _) vs -> count key metric (Array.of_list (List.rev !vs)))
       metrics values

(* Processors listed in /proc/cpuinfo, else the runtime's recommendation. *)
let cores () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | text ->
    let n =
      List.length
        (List.filter
           (fun l -> String.starts_with ~prefix:"processor" l)
           (String.split_on_char '\n' text))
    in
    if n > 0 then n else Domain.recommended_domain_count ()

(* The commit and whether the tree differs from it: a file regenerated
   on an uncommitted tree says so ("abc1234-dirty"). *)
let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some rev when String.trim rev <> "" -> String.trim rev
    | _ -> "unknown")

let host () =
  Json.Obj
    [ ("cores", Json.int (cores ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ())) ]

let row_json r =
  Json.Obj
    [ ("suite", Json.Str r.key.suite);
      ("benchmark", Json.Str r.key.benchmark);
      ("engine", Json.Str r.key.engine);
      ("domains", Json.int r.key.domains);
      ("config", Json.Str r.key.config);
      ("metric", Json.Str r.metric);
      ("median", Json.Num r.median);
      ("iqr", Json.Num r.iqr);
      ("n", Json.int r.n) ]

(* One row a line, so that a regenerated file diffs row by row. *)
let write file rows =
  let rows = List.map (fun r -> Json.to_string (row_json r)) rows in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "{\"host\":%s,\"rows\":[\n%s\n]}\n"
        (Json.to_string (host ()))
        (String.concat ",\n" rows));
  Format.printf "wrote %s (%d rows)@." file (List.length rows)

let row_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let num k = match Json.member k j with Some (Json.Num f) -> Some f | _ -> None in
  match
    ( (str "suite", str "benchmark", str "engine", num "domains", str "config"),
      (str "metric", num "median", num "iqr", num "n") )
  with
  | ( (Some suite, Some benchmark, Some engine, Some domains, Some config),
      (Some metric, Some median, Some iqr, Some n) ) ->
    Some
      { key = { suite; benchmark; engine; domains = int_of_float domains; config };
        metric; median; iqr; n = int_of_float n }
  | _ -> None

let read file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
    match Result.map (Json.member "rows") (Json.parse text) with
    | Ok (Some (Json.List rows)) -> List.filter_map row_of_json rows
    | Ok _ | Error _ -> [])

let pp ppf rows =
  let uniq l =
    List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)
  in
  let keys = uniq (List.map (fun r -> r.key) rows) in
  let metrics = uniq (List.map (fun r -> r.metric) rows) in
  let cell k m =
    match List.find_opt (fun r -> r.key = k && r.metric = m) rows with
    | None -> "-"
    | Some { n = 1; median; _ } when Float.is_integer median ->
      Printf.sprintf "%.0f" median
    | Some { n = 1; median; _ } -> Printf.sprintf "%.6g" median
    | Some r -> Printf.sprintf "%.4g +-%.2g (%d)" r.median r.iqr r.n
  in
  let lines =
    ([ "benchmark"; "engine"; "P"; "config" ] @ metrics)
    :: List.map
         (fun k ->
           [ k.benchmark; k.engine; string_of_int k.domains; k.config ]
           @ List.map (cell k) metrics)
         keys
  in
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map (fun _ -> 0) (List.hd lines))
      lines
  in
  List.iter
    (fun line ->
      let cells = List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths line in
      Format.fprintf ppf "%s@." (String.trim (String.concat "  " cells)))
    lines
