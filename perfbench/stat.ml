(* Clock and summary statistics. *)

(* Monotonic nanoseconds: light KB queries take 10-30 us, where a 1-us,
   non-monotonic wall clock would be a 3-10% quantum. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6

(* A fixed integer loop (~0.14 ms at full speed) over a 32 KiB table.
   The 2-vCPU hosts this was tuned on slow a vCPU down, this loop by up
   to ~2.2x, for stretches of 0.3 s to whole minutes (a busy hyperthread
   sibling, no steal time); timing the loop next to a measurement tells
   how fast the vCPU was then.  The table is read once untimed, so a
   cache the measured op evicted does not count. *)
let calib_table = Array.init 4096 (fun i -> i * 2654435761)

let calibrate_ns () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  Array.iter (fun x -> a := !a + x) calib_table;
  let t0 = now_ns () in
  for i = 1 to 60_000 do
    a := !a + calib_table.(i land 4095);
    b := !b lxor (!a lsr 3);
    c := !c + (if !b land 1 = 0 then i else 3);
    d := !d + calib_table.(!c land 4095)
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d));
  now_ns () - t0

(* The loop's time at full speed on those hosts: the 5th percentile of
   its readings over a run was 0.138-0.142 ms in runs that had any fast
   stretch. *)
let full_speed_cal_ms = 0.140

(* One measured op: its time (ms), the host-speed reading around it (the
   calibration loop's time then, ms), and [e], how strongly the op's
   code slows down with the loop. *)
type op = { ms : float; cal : float; e : float }

(* The op's time as it reads at full host speed: divided by (cal /
   full_speed_cal_ms) ** e.  A run the host slowed throughout, which no
   choice of its faster stretches can mend, reads as one that it did
   not slow. *)
let at_full_speed o = o.ms /. ((o.cal /. full_speed_cal_ms) ** o.e)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.round (q *. float_of_int (n - 1))))))

let quantile a q = quantile_sorted (sorted_copy a) q

let median a = quantile a 0.5

(* The highest of p99/p90/p50 with at least ten samples beyond it. *)
let tail_quantile n =
  List.find_opt (fun q -> (1. -. q) *. float_of_int n >= 10.) [ 0.99; 0.9; 0.5 ]
  |> Option.value ~default:1.0

let geomean a =
  let n = Array.length a in
  if n = 0 then nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0. a /. float_of_int n)

let sum a = Array.fold_left ( +. ) 0. a

type summary = {
  ops_per_s : float;  (* per second of op time *)
  p50_ms : float;
  p99_ms : float;     (* p90 where fewer than ten samples lie beyond p99 *)
  geomean_ms : float;
  samples : int;
}

(* The end-to-end figures of a run's op latencies (ms), in run order:
   each figure is read on up to five windows of consecutive ops, of at
   least 2000 ops each (so that each has a p99 with ten samples beyond
   it), then the median over the windows is taken.  A stretch that
   slowed the host in a way the calibration loop missed (one
   serve_inproc run in 20 read its p99 6x and its ops/s 40% off the
   rest) moves a figure only when it covers most of the run. *)
let summarize lat =
  let n = Array.length lat in
  let windows = max 1 (min 5 (n / 2000)) in
  let window i =
    let lo = i * n / windows in
    let a = sorted_copy (Array.sub lat lo (((i + 1) * n / windows) - lo)) in
    let k = Array.length a in
    ( 1e3 *. float_of_int k /. sum a,
      quantile_sorted a 0.5,
      quantile_sorted a (tail_quantile k),
      geomean a )
  in
  let ws = Array.init windows window in
  let med f = median (Array.map f ws) in
  { ops_per_s = med (fun (r, _, _, _) -> r);
    p50_ms = med (fun (_, p, _, _) -> p);
    p99_ms = med (fun (_, _, p, _) -> p);
    geomean_ms = med (fun (_, _, _, g) -> g);
    samples = n }

(* Growable float sample buffer; [capacity] floats are allocated, and
   so made resident, up front. *)
type samples = { mutable data : float array; mutable len : int }

let samples ?(capacity = 1024) () = { data = Array.make capacity 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* VmHWM (peak resident set) of a process, in MiB. *)
let vm_hwm_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:nan
