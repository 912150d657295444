(* Per-domain metric shards.

   The engines' structural counters ({!Ace_machine.Stats}) were designed
   for one record per run; on the multi-domain engine that either means a
   racy shared record or a merge that loses attribution.  A [Metrics.t]
   gives every domain its own shard — a private [Stats.t] plus the
   distribution counters a flat total cannot express (copy sizes, task
   durations, steal retries) and the busy/idle nanosecond accounting behind
   the utilization report.

   Single-writer discipline: shard [i] may only be written by worker [i]
   while the run is live; [total]/[utilization]/[to_json] read all shards
   and must only run after the workers have joined (same contract as
   {!Trace.events}). *)

module Stats = Ace_machine.Stats

(* ------------------------------------------------------------------ *)
(* Power-of-two histograms                                             *)
(* ------------------------------------------------------------------ *)

(* Bucket [b] counts values in [2^(b-1), 2^b) (bucket 0 counts <= 0);
   enough resolution to see "one huge copy" vs "many small ones" at a cost
   of one store per sample.  The bucket array is allocated at the first
   sample: most runs (every sequential and simulated one) never add any,
   and a shard's three arrays would be most of such a run's fixed
   allocation. *)
type hist = {
  mutable h_n : int;
  mutable h_sum : int;
  mutable h_max : int;
  mutable h_buckets : int array; (* [||] until the first sample *)
}

let hist_bucket_count = 63

let hist_create () = { h_n = 0; h_sum = 0; h_max = 0; h_buckets = [||] }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
    min (hist_bucket_count - 1) (go 0 v)
  end

let buckets h =
  if Array.length h.h_buckets = 0 then
    h.h_buckets <- Array.make hist_bucket_count 0;
  h.h_buckets

let hist_add h v =
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v;
  let b = buckets h in
  b.(bucket_of v) <- b.(bucket_of v) + 1

let hist_mean h = if h.h_n = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_n

let hist_merge_into ~into:a b =
  a.h_n <- a.h_n + b.h_n;
  a.h_sum <- a.h_sum + b.h_sum;
  if b.h_max > a.h_max then a.h_max <- b.h_max;
  if b.h_n > 0 then begin
    let ab = buckets a in
    Array.iteri (fun i n -> ab.(i) <- ab.(i) + n) b.h_buckets
  end

(* Non-empty buckets as (inclusive upper bound, count) pairs: bucket [b]
   holds values in [2^(b-1), 2^b - 1], so the bound is 2^b - 1. *)
let hist_buckets h =
  let acc = ref [] in
  for b = Array.length h.h_buckets - 1 downto 0 do
    if h.h_buckets.(b) > 0 then
      acc := ((if b = 0 then 0 else (1 lsl b) - 1), h.h_buckets.(b)) :: !acc
  done;
  !acc

let hist_to_json h =
  Json.Obj
    [ ("n", Json.int h.h_n); ("sum", Json.int h.h_sum);
      ("max", Json.int h.h_max); ("mean", Json.Num (hist_mean h));
      ("buckets",
       Json.List
         (List.map
            (fun (ub, n) -> Json.List [ Json.int ub; Json.int n ])
            (hist_buckets h))) ]

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type shard = {
  s_dom : int;
  s_stats : Stats.t;
  s_copy_cells : hist;  (* cells per environment copy *)
  s_task_ns : hist;     (* task durations (par engine, wall ns) *)
  s_steal_tries : hist; (* poll iterations per successful steal *)
  mutable s_busy_ns : int; (* wall ns inside tasks *)
  mutable s_idle_ns : int; (* wall ns hungry (stealing/polling) *)
}

type t = { shards : shard array }

let make_shard dom stats =
  {
    s_dom = dom;
    s_stats = stats;
    s_copy_cells = hist_create ();
    s_task_ns = hist_create ();
    s_steal_tries = hist_create ();
    s_busy_ns = 0;
    s_idle_ns = 0;
  }

let create ~domains =
  if domains < 1 then invalid_arg "Metrics.create: domains must be >= 1";
  { shards = Array.init domains (fun i -> make_shard i (Stats.create ())) }

(* Wraps existing per-agent records (the simulated engines already keep
   per-worker stats); the distribution counters start empty. *)
let of_stats_array stats = { shards = Array.mapi make_shard stats }

let of_stats stats = { shards = [| make_shard 0 stats |] }

let domains t = Array.length t.shards

let shard t i = t.shards.(i)

let stats t i = t.shards.(i).s_stats

let per_domain t = Array.map (fun s -> s.s_stats) t.shards

(* Merged run total; a fresh record, so calling it never aliases a shard. *)
let total t =
  let acc = Stats.create () in
  Array.iter (fun s -> Stats.merge_into ~into:acc s.s_stats) t.shards;
  acc

(* ------------------------------------------------------------------ *)
(* Utilization report                                                  *)
(* ------------------------------------------------------------------ *)

type util = {
  u_dom : int;
  u_busy_ns : int;
  u_idle_ns : int;
  u_busy_frac : float; (* busy / (busy + idle); 0 when unmeasured *)
  u_tasks : int;
  u_steals : int;
  u_copies : int;
  u_solutions : int;
}

let utilization t =
  Array.to_list
    (Array.map
       (fun s ->
         let span = s.s_busy_ns + s.s_idle_ns in
         {
           u_dom = s.s_dom;
           u_busy_ns = s.s_busy_ns;
           u_idle_ns = s.s_idle_ns;
           u_busy_frac =
             (if span = 0 then 0.0
              else float_of_int s.s_busy_ns /. float_of_int span);
           u_tasks = s.s_task_ns.h_n;
           u_steals = s.s_stats.Stats.steals;
           u_copies = s.s_stats.Stats.copies;
           u_solutions = s.s_stats.Stats.solutions;
         })
       t.shards)

let pp_utilization ppf t =
  Format.fprintf ppf "@[<v>== per-domain utilization ==@,";
  Format.fprintf ppf "%6s %10s %10s %7s %7s %7s %8s %10s@," "domain" "busy-ms"
    "idle-ms" "busy%" "tasks" "steals" "copies" "solutions";
  List.iter
    (fun u ->
      Format.fprintf ppf "%6d %10.3f %10.3f %6.1f%% %7d %7d %8d %10d@," u.u_dom
        (float_of_int u.u_busy_ns /. 1e6)
        (float_of_int u.u_idle_ns /. 1e6)
        (100.0 *. u.u_busy_frac) u.u_tasks u.u_steals u.u_copies u.u_solutions)
    (utilization t);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let stats_to_json s =
  Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) (Stats.fields s))

let shard_to_json s =
  Json.Obj
    [ ("dom", Json.int s.s_dom);
      ("busy_ns", Json.int s.s_busy_ns);
      ("idle_ns", Json.int s.s_idle_ns);
      ("copy_cells", hist_to_json s.s_copy_cells);
      ("task_ns", hist_to_json s.s_task_ns);
      ("steal_tries", hist_to_json s.s_steal_tries);
      ("stats", stats_to_json s.s_stats) ]

let to_json t =
  Json.Obj
    [ ("domains", Json.int (domains t));
      ("total", stats_to_json (total t));
      ("shards", Json.List (Array.to_list (Array.map shard_to_json t.shards))) ]
