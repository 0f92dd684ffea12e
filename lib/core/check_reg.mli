(** Consistency checkers for register (non-transactional) histories.

    Thin wrapper over {!Check_txn}: a read is a one-key read-only
    transaction, a write a blind one-key read-write transaction, an rmw a
    one-key transaction that reads and writes. Under this embedding the
    transactional models coincide with their register counterparts:
    strict serializability ↔ linearizability, PO serializability ↔
    sequential consistency, RSS ↔ RSC. *)

type model =
  | Linearizable
  | Sequential
  | Rsc
  | Regular_vv
  | Osc_u

val all_models : model list
val model_name : model -> string

val check : ?max_states:int -> History.t -> model -> Check_txn.result

val satisfies : ?max_states:int -> History.t -> model -> bool option
(** [None] when the search budget is exhausted before a verdict. *)

val causal : History.t -> Causal.t
