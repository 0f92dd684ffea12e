(** Per-shard leader state: multi-version store, prepared-transaction table,
    lock table, replication group, Paxos max-write timestamp.

    Protocol logic (2PC, read-only transactions, failover) lives in
    {!Protocol}; this module owns the data structures and the local
    invariants:
    - versions per key are kept newest-first; commit timestamps of writes to
      a key are strictly increasing (Observation 1 of Appendix D.1);
    - a prepared transaction's waiters fire exactly once, when it resolves;
    - [max_write_ts] only advances, and every prepare timestamp exceeds it
      at choice time.

    [leader_site] and [locks] are mutable because a view change in the
    shard's replication group moves leadership to another site and discards
    the old leader's volatile lock state; {!rebuild} reconstructs the rest
    from the replicated log. *)

type prepared = {
  p_txn : int;
  p_tp : int;  (** prepare timestamp *)
  mutable p_tee : int;  (** earliest client end estimate (absolute) *)
  p_writes : (int * int) list;  (** (key, value) this txn will write here *)
  mutable p_waiters : (Types.outcome -> unit) list;
  p_coord : int;  (** 2PC coordinator shard id (for in-doubt resolution) *)
  p_participants : int list;  (** all participants; only at the coordinator *)
}

type fence = { f_lo : int; f_hi : int; f_since : int }
(** Migration fence over [\[f_lo, f_hi)]: while set, the protocol layer
    bounces new lock acquisitions on the range so it can drain.
    Deliberately volatile — {!rebuild} clears it, and the migration driver
    re-checks the fence before committing the epoch. *)

type prepared_set
(** The prepared-transaction table and its per-key writer counts. Abstract
    so that only this module mutates it: {!add_prepared},
    {!resolve_prepared} and {!rebuild} keep the two in step. *)

type t = {
  shard_id : int;
  mutable leader_site : int;
  engine : Sim.Engine.t;
  tt : Sim.Truetime.t;
  txns : Types.table;
  station : Sim.Station.t;
  repl : Types.repl_entry Replication.Group.t;
  mutable locks : Locks.t;
  store : Types.version list Sim.Int_table.t;
  prepared_set : prepared_set;
  decided_tbl : (Types.outcome * int) Sim.Int_table.t;
      (** per-txn decided outcome and max t_ee; answers terminate/status
          queries and deduplicates outcome deliveries *)
  in_doubt : unit Sim.Int_table.t;
      (** txns with a coordinator status query in flight *)
  mutable max_write_ts : int;
  mutable fence : fence option;
  mutable n_ro_served : int;
  mutable n_ro_blocked : int;
  mutable n_prepared_scans : int;
      (** {!conflicting_prepared} calls that scanned the prepared table *)
  mutable n_rebuilds : int;
  wound_prepared_hook : (int -> unit) ref;
      (** set by {!Protocol.make_ctx}: routes a wound against a prepared
          holder to its 2PC coordinator *)
}

val create :
  Sim.Engine.t -> Sim.Net.t -> Sim.Truetime.t -> Types.table -> Config.t ->
  shard_id:int -> t

val read_version_at : t -> key:int -> ts:int -> Types.version option
(** Latest committed version with [ts' <= ts]. *)

val read_value_at : t -> key:int -> ts:int -> int option
(** The value of {!read_version_at}. *)

val advance_max_write_ts : t -> int -> unit

val choose_prepare_ts : t -> int
(** A fresh prepare timestamp > [max_write_ts]; advances [max_write_ts]. *)

val add_prepared : t -> prepared -> unit
(** Insert, or replace the entry of the same txn. *)

val prepared : t -> int -> prepared option

val fold_prepared : t -> (prepared -> 'a -> 'a) -> 'a -> 'a
(** Every prepared transaction here, in the table's order. *)

val prepared_txns : t -> int list
(** Ids of every prepared transaction here, ascending. *)

val conflicting_prepared : t -> keys:int list -> max_tp:int -> prepared list
(** Prepared transactions writing any of [keys] here with tp <= [max_tp].
    Costs one lookup per key when none of [keys] has a prepared writer;
    otherwise scans the prepared table. The order is the table's fold
    order, the same with or without the index, and callers depend on it:
    in-doubt resolution starts in this order and each start draws network
    jitter. *)

val wait_prepared : t -> prepared -> (Types.outcome -> unit) -> unit

val resolve_prepared : t -> txn:int -> Types.outcome -> unit
(** Apply writes (on commit), drop the entry, fire waiters. Does not touch
    locks — callers release via [t.locks]. No-op if absent. *)

(** {2 Placement} *)

val set_fence : t -> lo:int -> hi:int -> unit
val clear_fence : t -> unit

val fenced : t -> int -> bool
(** Is this key inside the current fence (if any)? *)

val prepared_in_range : t -> lo:int -> hi:int -> bool
(** Does any prepared transaction write a key in [\[lo, hi)]? *)

val snapshot_range : t -> lo:int -> hi:int -> owned:(int -> bool) -> (int * Types.version list) list
(** Full version lists for every stored key in [\[lo, hi)] passing
    [owned], sorted by key. *)

val install_versions : t -> (int * Types.version list) list -> int
(** Merge shipped version lists into the store (dedup by timestamp, so a
    retried ship is idempotent); returns the number of keys touched. *)

val decided : t -> int -> (Types.outcome * int) option

val set_decided : t -> txn:int -> Types.outcome -> max_tee:int -> unit

val rebuild : t -> entries:Types.repl_entry list -> unit
(** Install a new leader's state from the replicated log: reset every
    volatile table, replay prepares and outcomes in order (outcomes
    deduplicated via the decided table), restore the write locks of
    surviving prepared transactions, wounded ones included
    ({!Locks.restore_write}). The survivors are the in-doubt set the
    caller must resolve against their coordinators. *)
