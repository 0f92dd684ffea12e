(** The Spanner / Spanner-RSS wire protocols over the simulated network.

    Read-write transactions (§5 "Spanner background"): two-phase locking with
    wound-wait during an execution (read) phase, then two-phase commit across
    the participant shard leaders with prepare/commit timestamps, commit
    wait, and the client-side earliest-end-time (t_ee) estimate including
    both §6 optimizations.

    Read-only transactions: the strict-serializable protocol (block on every
    conflicting prepared transaction with tp <= t_read), or Algorithms 1-2
    when the cluster mode is {!Config.Rss} (skip prepared transactions unless
    tp <= t_min or t_ee <= t_read; fast replies carry prepared timestamps and
    skipped writes; slow replies resolve them; the client computes t_snap).

    All entry points are continuation-passing: they return immediately and
    fire their callback on the simulated clock. *)

type coord_state

(** Live-migration counters; {!Cluster.counters} reports them as
    [place.*]. *)
type migration_stats = {
  mutable started : int;
  mutable completed : int;
  mutable failed : int;  (** retry budget exhausted; fences were lifted *)
  mutable source_retries : int;
  mutable keys_moved : int;  (** keys shipped, counting re-ships *)
  mutable fence_hold_us : int;  (** total fence hold across sources *)
  mutable max_fence_hold_us : int;
}

type ctx = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  tt : Sim.Truetime.t;
  config : Config.t;
  txns : Types.table;
  shards : Shard.t array;
  coord_states : (int, coord_state) Hashtbl.t;  (** per-txn 2PC state *)
  mutable n_rw_committed : int;
  mutable n_rw_aborted_attempts : int;
  mutable n_ro : int;
  mutable n_ro_slow : int;
  mutable failover : bool;
  mutable rpc : Sim.Rpc.t option;
  mutable n_terminates : int;  (** client terminate queries issued *)
  mutable n_terminate_commits : int;  (** terminates that found a commit *)
  mutable n_in_doubt_resolved : int;  (** in-doubt prepares settled *)
  mutable tracer : Obs.Trace.t;  (** span sink; [Obs.Trace.disabled] = off *)
  directory : Place.Directory.t;
      (** authoritative key->shard ownership; epoch 0 matches
          [Config.shard_of_key] *)
  place_stats : migration_stats;
  mutable n_redirects : int;  (** ops bounced off a non-owning shard *)
  mutable n_fence_blocked : int;  (** lock acquisitions refused by a fence *)
  fence_bounced : (int, unit) Hashtbl.t;
      (** attempts refused by a fence — stands in for a "fenced" error code
          on the abort reply; the client's retry consumes it and backs off
          far longer than for a wound (the fence holds for drain + barrier) *)
  flow : Sim.Flow.t;
      (** overload control: every shard-bound message enters its leader's
          station through {!Sim.Flow.ingress}; default-off *)
}

val make_ctx :
  Sim.Engine.t -> Sim.Net.t -> Sim.Truetime.t -> Types.table -> Config.t -> ctx

val set_tracer : ctx -> Obs.Trace.t -> unit
(** Install a span sink on the protocol and everything under it (network,
    RPC helper, per-shard replication groups). Phases recorded: 2PC
    prepare and commit (decision through commit wait), RO blocking at a
    shard, plus the hops and RPC retries below. With the default
    [Obs.Trace.disabled] sink every instrumentation point is a single
    bool check — the message pattern and RNG stream are untouched. *)

val enable_failover :
  ctx -> rng:Sim.Rng.t -> ?config:Replication.Group.failover_config ->
  until_us:int -> unit -> unit
(** Arm crash recovery: view changes in every shard's replication group
    (rebuilding leader state from the replicated log on activation, then
    resolving in-doubt 2PC participants), durable prepare/commit records,
    and the client terminate protocol. [rng] feeds retry jitter only — a
    run with no retries draws nothing from it. Until armed, nothing in the
    failure-free message pattern changes. *)

type rw_result = {
  rw_commit_ts : int;
  rw_txn_id : int;  (** id of the committed attempt *)
  rw_reads : (int * int option) list;  (** (key, stored value observed) *)
}

val rw_txn :
  ?on_attempt:(int -> unit) -> ?deadline_us:int -> ?view:Place.Directory.view ->
  ctx -> client_site:int ->
  proc:int -> read_keys:int list -> writes:(int * int) list ->
  (rw_result -> unit) -> unit
(** Runs to commit, retrying internally on wound-wait aborts with the
    original priority. [writes] are (key, value) pairs, non-empty, one per
    key (duplicates raise [Invalid_argument]); duplicate [read_keys] are
    deduplicated. The continuation receives the commit timestamp
    and the values observed by the execution-phase reads (valid at the
    commit timestamp, by 2PL).

    [on_attempt] fires with each attempt's transaction id as it starts.
    Under fault injection a client can lose the commit acknowledgement; the
    last attempt id lets the caller look the outcome up post-hoc
    ([Cluster.txn_outcome]) and record committed-but-unacknowledged
    transactions into the history as incomplete. *)

type ro_result = {
  ro_snap_ts : int;  (** witness serialization timestamp *)
  ro_reads : (int * int option) list;  (** (key, stored value) *)
  ro_slow : bool;  (** did the client have to wait for slow replies / blocking? *)
}

val ro_txn :
  ?deadline_us:int -> ?view:Place.Directory.view -> ctx -> client_site:int ->
  proc:int -> t_min:int ->
  keys:int list -> (ro_result -> unit) -> unit
(** The caller owns t_min tracking: pass the session's current t_min and
    update it to [max t_min ro_snap_ts] on completion (Client does this).
    With failover armed, [deadline_us] re-issues the read from scratch
    (fresh snapshot timestamp) if no reply lands in time. *)

val fence : ctx -> t_min:int -> (unit -> unit) -> unit
(** §5.1: block until t_min + L < TT.now.earliest. *)

(** {1 Overload & gray-failure controls}

    All default-off: with none armed, no extra event is scheduled and no
    random draw occurs, so seeded schedules are byte-identical.

    The policy lives in [ctx.flow] and is armed with {!Sim.Flow.arm}.
    Spanner uses it as follows:
    - Only client-facing entry points are sheddable: RW execution-phase
      reads and RO shard reads. 2PC internal traffic is always admitted,
      because refusing a commit-phase message strands prepared
      participants.
    - With expiry drops armed, an op's [deadline_us] becomes an absolute
      expiry riding its requests, inherited by every retry. An expired
      read NACKs and the op abandons.
    - A shed RW read fails the attempt; the retry waits at least the
      server-suggested backoff. A shed RO read re-issues the whole RO
      after that backoff, if {!Sim.Flow.retry} allows it.
    - Every wound-wait retry and every RO re-issue goes through
      {!Sim.Flow.retry}, so a dry retry budget abandons the op instead of
      amplifying overload. With failover armed, {!Sim.Flow.may_retry}
      also decides each failover RO re-issue after the first. The two
      outcome queries, a client's [terminate] and a participant's in-doubt
      resolution, are exempt: they ask how a commit already sent ended, and
      giving up on one would force an abort on a transaction its
      coordinator may have committed.
    - Hedged ROs ({!Sim.Flow.hedge_us} > 0): an RO still unfinished after
      the delay is re-issued once, whole, to the shard leaders of the
      client's refreshed view; the first completion wins. *)

val stations : ctx -> Sim.Station.t list
(** Every shard leader's station, for queue-depth / sojourn observation. *)

val set_site_slowdown : ctx -> site:int -> factor:int -> unit
(** Gray failure: shards currently led from [site] serve [factor]x slower.
    Drivers apply this from their fault hook on {!Chaos.Schedule.Slow}. *)

val clear_slowdowns : ctx -> unit

val snapshot_read :
  ?view:Place.Directory.view -> ctx -> client_site:int -> ts:int ->
  keys:int list -> ((int * int option) list -> unit) -> unit
(** Spanner's read-at-timestamp API: a consistent multi-key snapshot as of
    [ts] (typically in the past). Blocks only on transactions prepared at or
    before [ts]. Deliberately outside the session/t_min machinery — it reads
    history — so it is not recorded into the run's consistency witness. *)

(** {1 Elastic placement}

    Requests are routed through the client's cached directory [?view]
    (falling back to the authoritative directory); the owning shard checks
    ownership authoritatively and bounces stale routes, which refresh the
    view and retry/re-issue. RW lock acquisition additionally respects the
    migration fence. With no migrations committed, every lookup returns
    exactly what static [Config.shard_of_key] dispatch did and no extra
    event or random draw occurs, so seeded schedules are unchanged. *)

val migrate : ?no_fence:bool -> ctx -> lo:int -> hi:int -> dst:int -> unit
(** Live-migrate keys [\[lo, hi)] to shard [dst] while the workload runs.

    Per source shard (every shard owning keys in the range, destination
    excluded), sequentially:

    - {b fence}: block new lock acquisitions on the range (a volatile
      marker on the source leader; a rebuilt leader forgets it);
    - {b drain}: poll every 500 µs until no read/write lock, queued request
      or prepared writer survives in the range; commit wait then
      guarantees every drained writer's commit timestamp precedes real
      time, hence [t_m];
    - {b cut}: pick [t_m] above the source's write watermark and
      [TT.latest], and advance the source so nothing can ever commit below
      [t_m] there again;
    - {b ship}: snapshot the range, durably log the outgoing bump, send the
      snapshot to the destination, which installs it, advances its own
      write watermark to [t_m] and durably logs the incoming bump before
      acking.

    Then one real-time barrier on the largest [t_m] — exactly the
    commit-wait rule: proceed only once [t_m < TT.earliest] — and, in the
    same event, a re-check that every fence still stands before the
    directory epoch commits. A fence lost to a leader failover, a ship
    unacknowledged after 2 s (replica view superseded, message dropped) or
    a drain unfinished after 120 s (faults can strand an in-range 2PC
    participant in prepared state) sends that source back through the
    loop with a fresh, larger [t_m]. Snapshot installation is idempotent
    (versions merge by timestamp), so a late duplicate ship is harmless.
    After 16 retries the migration fails: its fences are lifted and no
    epoch commits.

    Why RSS survives the handoff: clients reach the destination only after
    the epoch commit, which follows the barrier, so any read the new owner
    serves starts in real time after [t_m] — and the destination holds
    every version below [t_m]. The fence and drain make the source stop
    producing versions below [t_m] before the snapshot is cut.

    [?no_fence] is the unsafe mutation control for tests: it skips fence,
    drain and barrier, so writes that commit at the source after the
    snapshot are missing at the destination, and the online checker must
    flag the resulting stale read.

    Counts into [place_stats] and emits one [Obs.Trace.Migration] span
    when the tracer is live. *)
