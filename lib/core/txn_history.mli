(** Transactional execution histories.

    A transaction records the values it observed for the keys it read and the
    values it wrote. Read-only transactions have an empty write set;
    read-write transactions may read and write. As with {!History}, written
    values must be distinct per key so that the reads-from relation is
    derivable, and out-of-band causality is recorded as [msg_edges]. *)

type key = string
type value = int

type txn = {
  id : int;
  proc : int;
  reads : (key * value option) list;  (** (key, value observed) *)
  writes : (key * value) list;
  inv : int;
  resp : int option;
}

type t = { txns : txn array; msg_edges : (int * int) list }

val make : ?msg_edges:(int * int) list -> txn list -> t
(** Ids must be dense [0..n-1]. Raises [Invalid_argument] on malformed
    histories (duplicate writes per key, overlapping ops within a process,
    bad msg edges). *)

val ro :
  id:int -> proc:int -> reads:(key * value option) list -> inv:int -> ?resp:int ->
  unit -> txn

val rw :
  id:int -> proc:int -> ?reads:(key * value option) list ->
  writes:(key * value) list -> inv:int -> ?resp:int -> unit -> txn

val n_txns : t -> int
val txn : t -> int -> txn
val is_complete : txn -> bool
val is_mutator : txn -> bool

val conflicts : txn -> txn -> bool
(** [conflicts w r]: does read-write [w] write a key that [r] reads? *)

val validate : t -> (unit, string) result

val of_history : History.t -> t
(** View a register history as a history of single-key transactions:
    reads become RO transactions, writes blind RW transactions, rmws RW
    transactions that read and write their key. This is how the register
    checkers reuse the transactional checker engine. *)

val of_witness : id:int -> Witness.txn -> txn
(** A recorded transaction as transaction [id] of a history: the claimed
    serialization [ts]/[rank] are dropped and an unanswered transaction
    ([resp = max_int]) becomes incomplete ([resp = None]). *)

val pp_txn : Format.formatter -> txn -> unit
