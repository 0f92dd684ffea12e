(** Seeded, splittable pseudo-random number streams.

    Every simulated component takes its own stream so that adding randomness
    in one place never perturbs another — runs are reproducible from a single
    root seed. *)

type t

val make : int -> t
(** [make seed] is a fresh root stream. *)

val split : t -> t
(** An independent child stream; the parent advances deterministically. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val jittered : t -> int -> float -> int
(** [jittered t base j] is [base] scaled by a factor uniform in
    [\[1, 1 + j)], truncated: [int_of_float (float_of_int base *. (1.0 +.
    float t j))]. It makes the same draw and float operations as that
    expression, without boxing the draw across modules. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle : t -> 'a array -> unit
