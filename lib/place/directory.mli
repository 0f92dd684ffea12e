(** Epoch-versioned placement directory: key-range -> shard ownership.

    The authoritative map is a static base layout (epoch 0) overlaid with
    one range assignment per committed migration; assignments are applied
    newest-first, so the most recent migration of a key wins. Every commit
    bumps the epoch by exactly one and appends the assignment to a
    {!Sim.Durable} log.

    Clients hold cached {!view}s. A view answers lookups from its snapshot
    of the overlay without consulting the directory, goes {!stale} when a
    migration commits, and is repaired with {!refresh} — the protocol layer
    calls it when a shard bounces a misrouted request.

    All lookups are pure (no events, no randomness, no clock reads):
    directory-dispatched runs with no migrations are schedule-identical to
    static [key mod n_shards] dispatch. *)

type assignment = {
  a_epoch : int;  (** epoch this assignment created *)
  a_lo : int;  (** inclusive *)
  a_hi : int;  (** exclusive *)
  a_owner : int;  (** new owning shard *)
  a_tm : int;  (** migration timestamp [t_m] *)
}

type t

val create : ?base:(int -> int) -> n_shards:int -> unit -> t
(** [base] is the epoch-0 layout (default [fun key -> key mod n_shards]);
    it must send every key to [0 <= shard < n_shards]. *)

val n_shards : t -> int

val epoch : t -> int
(** Monotone; starts at 0, +1 per {!commit}. *)

val owner : t -> int -> int
(** Authoritative owner of a key at the current epoch. *)

val commit : t -> lo:int -> hi:int -> owner:int -> tm:int -> int
(** Atomically install [\[lo, hi) -> owner] with migration timestamp [tm];
    durably logs the assignment and returns the new epoch. *)

val assignments : t -> assignment list
(** Committed assignments, oldest first. *)

val log_entries : t -> assignment list
(** The durable log contents (equals {!assignments}). *)

val durable_appends : t -> int
val durable_bytes : t -> int

(** {1 Verified recovery}

    The durable log is one replica's persistence of the (conceptually
    quorum-replicated) assignment overlay. After a crash that may have
    damaged it, {!recover} verifies the framing and heals: a torn or
    resurfaced suffix is truncated and the lost assignments are re-appended
    from the overlay (the "peer" copy). Mid-log corruption with
    [peer:false] — no quorum reachable — fail-stops with a diagnostic
    rather than replaying a wrong ownership map. *)

val recover : ?peer:bool -> t -> [ `Ok | `Repaired of int | `Failstop of string ]
(** [`Repaired k] re-persisted [k] assignments. Default [peer:true]. *)

val repairs : t -> int
(** Total assignments re-persisted by {!recover} (and the scrub pass). *)

(** {1 Cached client views} *)

type view

val view : t -> view
(** A fresh view at the directory's current epoch. *)

val view_epoch : view -> int
val view_refreshes : view -> int

val stale : view -> bool
(** Has the directory moved past this view's epoch? *)

val refresh : view -> unit
(** Catch the view up to the directory's current epoch (no-op if fresh). *)

val view_owner : view -> int -> int
(** Owner of a key {e according to the cached view} — possibly stale; the
    owning shard's own check is authoritative. *)
