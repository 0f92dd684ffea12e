(** Mutable tables keyed by [int].

    Open addressing with linear probing: keys and values sit in flat arrays,
    a multiplicative hash keeps the product's high bits (keys that share
    their low bits, such as the keys of one Spanner shard, still spread),
    and removal shifts the rest of the probe run back, so no tombstones
    build up. A table starts empty, takes 16 slots at its first binding and
    doubles when it would be more than half full.

    Lookups, [replace] of a bound key and [remove] allocate nothing, and no
    operation calls C or compares polymorphically.

    Iteration order ({!fold}) is unspecified and changes with the table's
    history: a fold whose order could reach the simulated schedule must
    use a table with a fixed order instead. *)

type 'a t

val create : unit -> 'a t
(** An empty table. *)

val length : 'a t -> int
(** Number of bindings. *)

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** Raises [Not_found] if the key is unbound. *)

val find_opt : 'a t -> int -> 'a option

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding. *)

val remove : 'a t -> int -> unit
(** Unbind the key; does nothing if it is unbound. *)

val reset : 'a t -> unit
(** Remove every binding. A table grown past 16 slots releases them, as
    after {!create}. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Folds over every binding in unspecified order. The table must not be
    changed during the fold. *)
