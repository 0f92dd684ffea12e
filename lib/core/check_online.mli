(** Incremental (online) witness verification.

    Same semantics as {!Witness.check} — legality, session order, and the
    mode's real-time constraint over the serialization order claimed by the
    system's timestamps — but transactions are consumed one at a time as the
    harness records them. Cost is near-linear for histories whose claimed
    order tracks arrival order (which simulator record streams do); out-of-
    order inserts cost their displacement, which is metered but never
    bounded, so every history gets a [Pass] or a [Fail].

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
(** Feed the next recorded transaction, in arrival (response) order. Cheap:
    amortised O(log n) plus displacement for out-of-order serialization. *)

val result : t -> verdict
(** Settle deferred read obligations and run the exact real-time scans:
    [Pass] or [Fail], never [Unknown]. Idempotent in effect but intended to
    be called once, after the last [add]. *)

val n_added : t -> int
(** Transactions fed so far. *)

val work : t -> int
(** Total insertion displacement performed — the work meter. *)

val max_displacement : t -> int
(** Largest single-insert displacement seen. *)

val check : mode:Witness.mode -> Witness.txn array -> verdict
(** One-shot convenience: feed the whole array in order, then {!result}. *)
