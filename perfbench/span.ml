(* In-memory spans around the calls the benchmark makes into each layer.
   A span records its name, start, end, parent span and op id; spans are
   kept in memory and written out once, when the run ends.  A layer's
   self time is its span's duration minus the part covered by its child
   spans.

   One recorder per thread: spans nest by a stack of open spans, so a
   recorder must not be shared between threads. *)

type span = {
  name : string;
  start_ns : int;
  mutable stop_ns : int;
  parent : int;  (* index of the enclosing span, -1 at the root *)
  op : int;
  mutable child_ns : int;  (* time covered by direct children *)
}

type t = {
  mutable on : bool;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;
}

let create () = { on = false; spans = [||]; len = 0; stack = [] }

let push t s =
  if t.len = Array.length t.spans then begin
    let a = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 a 0 t.len;
    t.spans <- a
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

(* [with_span t name ~op f] runs [f], recording a span around it when
   the recorder is on. *)
let with_span t name ~op f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let id = t.len in
    push t
      { name; start_ns = Stat.now_ns (); stop_ns = 0; parent; op; child_ns = 0 };
    t.stack <- id :: t.stack;
    Fun.protect f ~finally:(fun () ->
        let s = t.spans.(id) in
        s.stop_ns <- Stat.now_ns ();
        t.stack <- List.tl t.stack;
        if parent >= 0 then
          let p = t.spans.(parent) in
          p.child_ns <- p.child_ns + (s.stop_ns - s.start_ns))
  end

let spans t = Array.sub t.spans 0 t.len

let duration_ns s = s.stop_ns - s.start_ns

let self_ns s = duration_ns s - s.child_ns

(* Median duration of the spans called [name], in ms times [scale]
   (1e3 for us). *)
let median ~scale t name =
  let d =
    Array.of_list
      (List.filter_map
         (fun s ->
           if String.equal s.name name then Some (Stat.ms_of_ns (duration_ns s)) else None)
         (Array.to_list (spans t)))
  in
  if Array.length d = 0 then nan else scale *. Stat.median d

(* One JSON object per span, tagged with the recorder's name (span ids
   and parents are indices within one recorder). *)
let write oc ~recorder t =
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"recorder\":%S,\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d,\"self_ns\":%d}\n"
        recorder i s.name s.start_ns s.stop_ns s.parent s.op (self_ns s))
    (spans t)
