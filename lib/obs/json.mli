(** Minimal JSON values, printing and parsing.

    Exists so the observability exporters can build provably
    well-formed output and the tests can round-trip it without an
    external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) serialization.  Integral [Num]s print without a
    decimal point. *)
val to_string : t -> string

(** [add_string buf s] writes [s] as a JSON string literal, as
    {!to_string} prints [Str s]. *)
val add_string : Buffer.t -> string -> unit

(** [add_int buf n] writes [n] as {!to_string} prints [int n]: its digits
    when [|n| < 10^15], otherwise the nearest float in ["%.17g"] form. *)
val add_int : Buffer.t -> int -> unit

(** Parses a complete JSON document; [Error msg] carries the byte offset of
    the first problem. *)
val parse : string -> (t, string) result

(** Object field lookup; [None] for non-objects and missing keys. *)
val member : string -> t -> t option

(** Array payload; [None] for non-arrays. *)
val to_list : t -> t list option

(** [int n] is [Num (float_of_int n)]. *)
val int : int -> t
