(** Search-based consistency checkers for transactional histories.

    A history satisfies a model iff there is a total order of its
    transactions that (a) is legal for a multi-key key-value store — every
    read returns the latest preceding write, or nothing — and (b) contains
    the model's mandatory order edges. The checkers enumerate candidate
    orders with memoized DFS, so they are exact but meant for small histories
    (tests, examples, paper figures — tens of transactions). Large simulated
    runs use {!Check_graph} instead, which fixes each key's write order to
    the one the system claims.

    Models implemented (§3.4 and Appendix A):
    - {!Strict_serializable} — real-time order between all pairs, and each
      process's order (a process's next transaction may start at the tick
      its previous one returned).
    - {!Process_ordered} — each process's order only (PO serializability /
      sequential consistency for registers).
    - {!Rss} — causal order (process ∪ message ∪ reads-from, transitive)
      plus the regular real-time constraint: a completed read-write
      transaction precedes every conflicting read-only transaction and every
      read-write transaction that follows it in real time.
    - {!Regular_vv} — Viotti-Vukolić regularity: only the regular real-time
      constraint.
    - {!Crdb} — process order plus real-time order between conflicting pairs.
    - {!Osc_u} — process order plus real-time edges {e into} writes
      (operations preceding a write are ordered before it).

    Register histories are checked as histories of one-key transactions
    (built with {!Txn_history.read}, {!Txn_history.write} and
    {!Txn_history.rmw}): a read is a one-key read-only transaction, a write
    a blind one-key read-write transaction, an rmw a one-key transaction
    that reads and writes. Under this embedding the transactional models
    coincide with their register counterparts: strict serializability ↔
    linearizability, PO serializability ↔ sequential consistency, RSS ↔
    RSC; {!Regular_vv} and {!Osc_u} are VV-regularity and OSC(U). *)

type model =
  | Strict_serializable
  | Process_ordered
  | Rss
  | Regular_vv
  | Crdb
  | Osc_u

val all_models : model list
val model_name : model -> string

type result =
  | Sat of int list  (** a witness order (txn ids) *)
  | Unsat
  | Unknown  (** search budget exhausted *)

val check : ?max_states:int -> Txn_history.t -> model -> result
(** [max_states] bounds the DFS (default 2_000_000 visited states). *)

val satisfies : ?max_states:int -> Txn_history.t -> model -> bool option
(** [Sat _ -> Some true], [Unsat -> Some false], [Unknown -> None] (search
    budget exhausted — never a wrong verdict). *)

val causal : Txn_history.t -> Causal.t
(** The potential-causality relation of the history (over all txns,
    including ones the checker would drop). *)

val constraint_edges : Txn_history.t -> model -> (int * int) list
(** The mandatory order edges a model imposes, for inspection/testing. *)
