(** Transactional execution histories.

    A transaction records the values it observed for the keys it read and the
    values it wrote. Read-only transactions have an empty write set;
    read-write transactions may read and write. Written values must be
    distinct per key so that the reads-from relation is derivable, and
    out-of-band causality (the paper's message-passing edges, §3.3) is
    recorded as [msg_edges]: [(a, b)] means txn [a]'s response
    happened-before txn [b]'s invocation via a message.

    A register history (reads, writes and read-modify-writes) is a history
    of one-key transactions, built with {!read}, {!write} and {!rmw}. *)

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
(** Ids must be dense [0..n-1]; [make []] is the empty history. Raises [Invalid_argument] on malformed
    histories (duplicate writes per key, overlapping ops within a process,
    bad msg edges). *)

val ro :
  id:int -> proc:int -> reads:(key * value option) list -> inv:int -> ?resp:int ->
  unit -> txn

val rw :
  id:int -> proc:int -> ?reads:(key * value option) list ->
  writes:(key * value) list -> inv:int -> ?resp:int -> unit -> txn

(** {2 Register operations as one-key transactions} *)

val read :
  id:int -> proc:int -> key:key -> ?value:value -> inv:int -> ?resp:int -> unit -> txn
(** A read-only txn of [key] that returned [value] ([None]: nil). *)

val write :
  id:int -> proc:int -> key:key -> value:value -> inv:int -> ?resp:int -> unit -> txn
(** A blind write of [value] to [key]. *)

val rmw :
  id:int -> proc:int -> key:key -> ?observed:value -> result:value -> inv:int ->
  ?resp:int -> unit -> txn
(** A read-write txn that read [observed] from [key] and wrote [result] to
    it, e.g. an atomic increment. *)

val n_txns : t -> int
val txn : t -> int -> txn
val is_complete : txn -> bool
val is_mutator : txn -> bool

val conflicts : txn -> txn -> bool
(** [conflicts w r]: does read-write [w] write a key that [r] reads? *)

val validate : t -> (unit, string) result

val of_witness : id:int -> Witness.txn -> txn
(** A recorded transaction as transaction [id] of a history: the claimed
    serialization [ts]/[rank] are dropped and an unanswered transaction
    ([resp = max_int]) becomes incomplete ([resp = None]). *)

val pp_txn : Format.formatter -> txn -> unit
