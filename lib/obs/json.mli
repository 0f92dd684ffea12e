(** Minimal dependency-free JSON: a parser (used to validate exported
    Chrome trace_event files and to read bench reports) and a
    pretty-printer (used to write the bench reports). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document ([Error] carries position info). *)

val to_string : t -> string
(** Pretty-print with two-space indentation and no trailing newline.
    NaN and infinities print as [null]; integral floats print without a
    fraction; other floats print in the shortest form that round-trips,
    so [parse (to_string v) = Ok v] for every tree of finite numbers. *)

val add_escaped : Buffer.t -> string -> unit
(** Append the JSON string-literal escape of a string (without the
    surrounding quotes) — the escaper {!to_string} uses. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
