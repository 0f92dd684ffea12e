(** Grouping by a counting sort. *)

val by : int -> int -> (int -> int) -> int array * int array
(** [by n_groups n rank] is [(off, by)]: the members of [0, n) grouped by
    [rank i], which lies in [0, n_groups), ascending within a group; group
    [g] occupies [by.(off.(g))] up to [by.(off.(g + 1) - 1)]. [rank] is
    applied twice to each member. O(n + n_groups) time, and no allocation
    beyond the two results. *)
