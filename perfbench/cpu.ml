(* Running a measured loop on the faster vCPU.  Each vCPU of the 2-vCPU
   hosts this was tuned on slows down by ~1.7x on its own, for stretches
   of 0.3 s to a minute (a busy hyperthread sibling), and a single busy
   thread stays on the vCPU it started on, so a whole run could sit on
   the slow one while the other was at full speed. *)

external allowed_cpus : unit -> int = "perfbench_allowed_cpus"
external set_cpus : int -> bool = "perfbench_set_cpus"

let allowed = allowed_cpus ()

let cpus = List.filter (fun i -> allowed land (1 lsl i) <> 0) (List.init 62 Fun.id)

(* Moves the calling thread to the allowed CPU on which the calibration
   loop now runs fastest (the faster of two loops on each). *)
let to_fastest () =
  if List.length cpus > 1 then begin
    let best = ref (-1) and best_ns = ref max_int in
    List.iter
      (fun c ->
        if set_cpus (1 lsl c) then begin
          let ns = min (Stat.calibrate_ns ()) (Stat.calibrate_ns ()) in
          if ns < !best_ns then begin
            best := c;
            best_ns := ns
          end
        end)
      cpus;
    ignore (set_cpus (if !best >= 0 then 1 lsl !best else allowed))
  end

(* Lets the calling thread, and the processes it starts, run anywhere
   again. *)
let release () = ignore (set_cpus allowed)
