(** Witness verification over a recorded history, by sorting.

    Legality, session order, and the mode's real-time constraint over the
    serialization order claimed by the system's timestamps — the whole
    claimed order, not just each key's write order as {!Check_graph}
    trusts, so a [Pass] here implies an [Ok] there. Records are appended as the harness recorded them;
    {!result} then sorts them once by the claimed order (ts, rank, inv,
    arrival) and replays it, so every history gets a [Pass] or a [Fail], in
    O(m log m) time for [m] records and key occurrences.

    Precondition: written values are unique per key (as everywhere reads-from
    is derived in this repo). *)

type verdict =
  | Pass  (** the claimed order is a valid witness for the mode *)
  | Fail of string  (** a definitive violation, with explanation *)
  | Unknown of string
      (** no verdict: {!Check_online} itself never returns it; the harness
          reports it for a run whose checking was disabled *)

type t

val create : mode:Witness.mode -> unit -> t
(** [create ~mode ()] starts an empty checker. *)

val add : t -> Witness.txn -> unit
(** Append the next recorded transaction, in arrival (response) order.
    Nothing is checked until {!result}. *)

val result : t -> verdict
(** Sort by the claimed order, replay it (a transaction's reads before its
    writes; reads of incomplete transactions are not checked), check each
    process's order and run the mode's real-time scans: [Pass] or [Fail],
    never [Unknown]. Computed once and cached until the next {!add}. A
    [Fail] names the first violation found in that order: legality along
    the claimed order, then sessions, then real time. *)

val n_added : t -> int
(** Transactions appended so far — every one, whatever the verdict. *)

val work : t -> int
(** How far arrival order strays from the claimed order: for each member of
    four families — the claimed order, each key's writers, each key's
    complete readers, each process's (inv, arrival) order — the members
    that arrived earlier but rank after it, summed. It equals the positions
    that inserting each record into its families' sorted lists in arrival
    order would shift. Settles like {!result}. *)

val max_displacement : t -> int
(** The largest single count summed by {!work}. *)

val check : mode:Witness.mode -> Witness.txn array -> verdict
(** One-shot convenience: append the whole array in order, then {!result}. *)
