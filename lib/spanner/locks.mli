(** Per-shard two-phase-locking lock table with wound-wait deadlock
    avoidance (Rosenkrantz et al. 1978), as used by Spanner's read-write
    transactions.

    Priorities are (first-attempt start time, unique tiebreak) — smaller =
    older = wins. On conflict, an older requester wounds (aborts) a younger
    holder unless the holder is already prepared at this shard (its fate
    then belongs to its 2PC coordinator); a younger requester waits. Retries
    keep the first attempt's priority, so an {e equal}-priority holder is an
    earlier, already-aborted attempt of the requester's own transaction
    whose release was lost: a non-prepared one is wounded like a younger
    holder. Readers also wait behind older queued writers, so writers are
    not starved.

    The table is callback-parameterized over shard state it must not own:
    whether a transaction is prepared here, whether it has been wounded
    anywhere, and how to wound. *)

type t

type grant = Granted of { blocked_us : int } | Aborted

val create :
  Sim.Engine.t ->
  is_prepared:(int -> bool) ->
  is_wounded:(int -> bool) ->
  wound:(int -> unit) ->
  wound_prepared:(int -> unit) ->
  t
(** [wound txn] must mark [txn] wounded globally; this table releases the
    victim's local locks itself. [wound_prepared txn] is called when an older
    requester conflicts with a {e prepared} holder: the table cannot abort it
    unilaterally (its fate belongs to 2PC), so the callback must route an
    abort request to the victim's coordinator — breaking the
    prepared-waits-for-older cycle that plain wound-wait would deadlock on.
    The requester still waits until the victim resolves. *)

val acquire_read : t -> key:int -> txn:int -> priority:int * int -> (grant -> unit) -> unit
val acquire_write : t -> key:int -> txn:int -> priority:int * int -> (grant -> unit) -> unit
(** Re-entrant: a transaction holding a read lock may upgrade; acquiring a
    lock already held succeeds immediately. The continuation may fire
    synchronously. *)

val restore_write : t -> key:int -> txn:int -> priority:int * int -> unit
(** Make [txn] the write holder of [key] at once: no queue, no wound
    check, no grant event. For a rebuilt leader's surviving prepares,
    which must hold their write locks whatever happened to them before the
    crash (a wounded prepare can still commit). [key] must have no holder;
    {!release_all} releases the lock. *)

val release_all : t -> txn:int -> unit
(** Drop every lock and queued request of [txn], then re-process waiters. *)

val holds_read : t -> key:int -> txn:int -> bool
val holds_write : t -> key:int -> txn:int -> bool

val wounds_inflicted : t -> int

val any_busy_in : t -> lo:int -> hi:int -> bool
(** Does any key in [\[lo, hi)] have a lock holder (read or write) or a
    queued request? The placement drain polls this until the fenced range
    is quiescent. *)

