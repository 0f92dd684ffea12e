(** Reachability (transitive closure) over small DAGs of operation ids.

    Used to materialize the paper's potential-causality relation (§3.3):
    process order ∪ message passing ∪ reads-from, closed transitively. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] closes [edges] transitively over nodes [0..n-1].
    Raises [Invalid_argument] if the edges contain a cycle (causality is an
    irreflexive partial order). *)

val precedes : t -> int -> int -> bool
(** [precedes t a b] — does [a] causally precede [b]? *)

val n : t -> int

val edges : t -> (int * int) list
(** All pairs in the closure. *)
