(** Top-level assembly of a simulated Spanner / Spanner-RSS deployment:
    engine wiring, shards, protocol context, and the execution history used
    to verify each run against its consistency model. *)

type t

val create : Sim.Engine.t -> rng:Sim.Rng.t -> Config.t -> t

val engine : t -> Sim.Engine.t
val config : t -> Config.t
val ctx : t -> Protocol.ctx
val net : t -> Sim.Net.t
val truetime : t -> Sim.Truetime.t

val txn_outcome : t -> int -> Types.outcome option
(** The 2PC outcome recorded for a transaction attempt ([None] while
    undecided). Chaos audits use this to sweep committed-but-unacknowledged
    attempts into the history after a run. *)

val fresh_proc : t -> int
(** A new session (process) id for history purposes. *)

val fresh_value : t -> int
(** A run-unique stored value (for auto-valued writes). *)

val record : t -> Rss_core.Witness.txn -> unit

val set_record_hook : t -> (Rss_core.Witness.txn -> unit) -> unit
(** Observe every {!record} call as it happens — the feed for online
    checking. One hook at a time; defaults to [ignore]. *)

val records : t -> Rss_core.Witness.txn array

val check_history : t -> (unit, string) result
(** Verify the collected history against the cluster's own consistency model
    (strict serializability or RSS) with {!Rss_core.Check_graph}, each
    key's write order fixed by commit timestamps. *)

(** {2 Tracing} *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Install a span sink cluster-wide: network hops, 2PC phases, RO
    blocking, RPC retries, and view changes all record into it (see
    {!Protocol.set_tracer}); [Client] operations add their own root spans.
    Tracing is passive — it never draws randomness or schedules events —
    so a traced run follows the same seeded schedule as an untraced one. *)

val tracer : t -> Obs.Trace.t

(** {2 Run statistics} *)

type stats = {
  rw_committed : int;
  rw_aborted_attempts : int;
  wounds : int;
  ro_count : int;
  ro_slow : int;  (** client had to wait for slow replies *)
  ro_blocked_at_shards : int;  (** shard-side blocking events *)
  messages : int;
}

val stats : t -> stats

(** {2 Failover} *)

val enable_failover :
  t -> rng:Sim.Rng.t -> ?config:Replication.Group.failover_config ->
  until_us:int -> unit -> unit
(** Arm view-change failover on every shard group plus the client
    terminate / in-doubt resolution machinery (see
    {!Protocol.enable_failover}). [rng] should be a dedicated stream (e.g.
    a {!Sim.Rng.split} the caller owns): it feeds retry jitter only, so the
    cluster's fault-free behavior stays byte-identical. *)

(** {2 Overload & gray-failure controls}

    Cluster-level passthroughs to {!Protocol}'s flow controls; all
    default-off and byte-identity-preserving when unarmed. *)

val stations : t -> Sim.Station.t list
(** Every shard leader's station (queue-depth / sojourn recorders live
    there once admission or observation is armed). *)

val set_site_slowdown : t -> site:int -> factor:int -> unit
(** Gray failure: shards currently led from [site] serve [factor]x slower. *)

val clear_slowdowns : t -> unit

type flow_stats = Sim.Flow.stats = {
  expired : int;
  shed : int;
  abandoned : int;
  hedges : int;
  hedge_wins : int;
}
(** The protocol's overload counters (see {!Sim.Flow.stats}). Re-exported
    so callers can name the fields through the cluster. *)

val flow_stats : t -> flow_stats

(** {2 Elastic placement} *)

val directory : t -> Place.Directory.t
(** The cluster's authoritative placement directory (epoch 0 equals the
    static [Config.shard_of_key] layout). *)

val migrate : ?no_fence:bool -> t -> lo:int -> hi:int -> dst:int -> unit
(** Live-migrate key range [\[lo, hi)] to shard [dst] while the workload
    runs; see {!Protocol.migrate}. [?no_fence] is the unsafe mutation
    control used by safety tests. *)

(** {2 Run counters} *)

val counters : t -> (string * int) list
(** The run's protocol counters under their report names, the one place
    they are named: [rw.*], [ro.*] and the ten [place.*] counters always;
    with failover armed ({!enable_failover}), also the [failover.*]
    counters (view changes, heartbeats, catch-ups, duplicate acks, worst
    election, terminates, in-doubt resolution, RPC retries, durable log
    traffic) and the [durable.repair.*] storage-repair counters. *)
