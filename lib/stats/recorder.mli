(** Growable sample recorder with exact percentiles.

    Samples are integers (we use microseconds). Percentiles use the
    nearest-rank-with-interpolation definition over the full sample set —
    experiments at p99.9 need exact tails, not sketch approximations. *)

type t

val create : unit -> t

val add : t -> int -> unit

val count : t -> int

val is_empty : t -> bool

val mean : t -> float

val min : t -> int
(** Raises [Invalid_argument] when empty. *)

val max : t -> int
(** Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]]; linear interpolation between
    ranks. Raises [Invalid_argument] when empty or [p] out of range. *)

val percentile_ms : t -> float -> float

val min_opt : t -> int option
(** [None] on an empty recorder (where {!min} raises). *)

val max_opt : t -> int option

val percentile_opt : t -> float -> float option

val percentile_ms_opt : t -> float -> float option
(** {!percentile} converted from µs to ms. *)

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to every sample, in no particular order. *)

val to_sorted_array : t -> int array
(** A copy of the samples, sorted ascending. *)

val merge : t -> t -> t
(** A fresh recorder holding both sample sets. *)
