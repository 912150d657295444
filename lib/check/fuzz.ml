(* Fuzz driver: generate [count] cases from consecutive seeds, run the
   differential oracle on each, shrink any failure to a local minimum and
   print a replay line.  Everything is derived from the base seed, so a
   failure report is reproducible with
   [--check-seed <case seed> --check-count 1]. *)

type failure = {
  f_index : int;
  f_seed : int; (* the case seed: [generate ~seed:f_seed] replays it *)
  f_label : string;
  f_chaos : string;
  f_expected : Oracle.outcome;
  f_got : Oracle.outcome;
  f_case : Gen_prog.t;
  f_shrunk : Gen_prog.t;
}

type report = {
  r_count : int;
  r_agreed : int;
  r_skipped : int;
  r_runs : int; (* total engine runs compared against the reference *)
  r_failures : failure list;
}

let case_seed ~seed i = seed + i

let run ?(count = 500) ?(seed = 0) ?(schedules = 2) ?mutation ?extra_chaos
    ?log () =
  let log s = match log with Some f -> f s | None -> () in
  let agreed = ref 0 and skipped = ref 0 and runs = ref 0 in
  let failures = ref [] in
  for i = 0 to count - 1 do
    let cs = case_seed ~seed i in
    let case = Gen_prog.generate ~seed:cs in
    (match Oracle.check ~schedules ?mutation ?extra_chaos case with
    | Oracle.Agree n ->
      incr agreed;
      runs := !runs + n
    | Oracle.Skip _ -> incr skipped
    | Oracle.Disagree { d_label; d_expected; d_got; d_chaos } ->
      log (Printf.sprintf "case %d (seed %d): %s disagrees — shrinking" i cs
             d_label);
      let shrunk =
        Shrink.minimize
          ~property:(Oracle.fails ~schedules ?mutation ?extra_chaos)
          case
      in
      failures :=
        {
          f_index = i;
          f_seed = cs;
          f_label = d_label;
          f_chaos = d_chaos;
          f_expected = d_expected;
          f_got = d_got;
          f_case = case;
          f_shrunk = shrunk;
        }
        :: !failures);
    if (i + 1) mod 50 = 0 then
      log (Printf.sprintf "%d/%d cases (%d agreed, %d skipped, %d failures)"
             (i + 1) count !agreed !skipped (List.length !failures))
  done;
  {
    r_count = count;
    r_agreed = !agreed;
    r_skipped = !skipped;
    r_runs = !runs;
    r_failures = List.rev !failures;
  }

let pp_failure ppf f =
  Format.fprintf ppf
    "@.FAIL case %d: engine run %s disagrees with the sequential reference@."
    f.f_index f.f_label;
  Format.fprintf ppf "  replay: --check-seed %d --check-count 1%s@." f.f_seed
    (if f.f_chaos = "off" then ""
     else Printf.sprintf " --check-chaos '%s'" f.f_chaos);
  Format.fprintf ppf "  expected %s, got %s@."
    (Oracle.outcome_to_string f.f_expected)
    (Oracle.outcome_to_string f.f_got);
  Format.fprintf ppf "  shrunk to %d clauses:@.%a"
    (Gen_prog.clause_count f.f_shrunk) Gen_prog.pp f.f_shrunk

let pp_report ppf r =
  List.iter (pp_failure ppf) r.r_failures;
  Format.fprintf ppf
    "check: %d cases — %d agreed (%d engine runs), %d skipped, %d failures@."
    r.r_count r.r_agreed r.r_runs r.r_skipped (List.length r.r_failures)

let ok r = r.r_failures = []
