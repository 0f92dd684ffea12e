(** Assembly of a simulated Gryff / Gryff-RSC deployment, with history
    recording and its offline check.

    Carstamps order only one key's writes, so the offline check
    ({!check_records}) takes each key's write order from them and decides
    the model across keys with {!Rss_core.Check_graph}: RSC for [Rsc],
    linearizability for [Lin]. *)

type t

val create : Sim.Engine.t -> rng:Sim.Rng.t -> Config.t -> t

val engine : t -> Sim.Engine.t
val config : t -> Config.t
val ctx : t -> Protocol.ctx
val net : t -> Sim.Net.t

val fresh_proc : t -> int

type op_kind = Read | Write | Rmw

type record = {
  g_proc : int;
  g_kind : op_kind;
  g_key : int;
  g_observed : int option;  (** value read (reads, rmws) *)
  g_written : int option;  (** value written (writes, rmws) *)
  g_cs : Carstamp.t;
  g_inv : int;
  g_resp : int;
}

val record : t -> record -> unit

val set_record_hook : t -> (record -> unit) -> unit
(** Observe every {!record} call as it happens — the feed for online
    checking. One hook at a time; defaults to [ignore]. *)

val fresh_value : t -> int
(** A run-unique value to write (base 1_000_000_000) — keeps reads-from
    derivable without per-test value disciplines. *)

val records : t -> record array

val check_history : t -> (unit, string) result
(** {!check_records} over the cluster's collected history. *)

val witness_txn : record -> Rss_core.Witness.txn
(** A record as a one-op transaction on key [string_of_int g_key], its
    packed carstamp as [ts], reads ranked after mutators. *)

val check_records : mode:Config.mode -> record array -> (unit, string) result
(** Check a record set against [mode]'s model with one
    {!Rss_core.Check_graph} call over the whole history, so cross-key
    violations such as IRIW are caught. The independent oracle of tests,
    fuzzers and examples; driven runs are judged by [Harness.judge]. *)

(** {2 Tracing} *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Install a span sink cluster-wide (see {!Protocol.set_tracer}); [Client]
    operations add their own root spans. Tracing is passive — it never
    draws randomness or schedules events — so a traced run follows the same
    seeded schedule as an untraced one. *)

val tracer : t -> Obs.Trace.t

(** {2 Run statistics} *)

type stats = {
  reads : int;
  read_second_round : int;
  deps_created : int;
  writes : int;
  rmws : int;
  rmw_slow : int;
  messages : int;
}

val stats : t -> stats

(** {2 Retransmission} *)

val enable_retrans : t -> rng:Sim.Rng.t -> unit -> unit
(** Arm per-request retransmission on the idempotent protocol phases (see
    {!Protocol.enable_retrans}); lets clients ride through up to f crashed
    replicas. *)

type retrans_stats = { rpc_calls : int; rpc_retries : int; rpc_exhausted : int }

val retrans_stats : t -> retrans_stats

(** {2 Overload & gray-failure controls}

    Cluster-level passthroughs to {!Protocol}'s flow controls; all
    default-off and byte-identity-preserving when unarmed. *)

val stations : t -> Sim.Station.t list
(** Every replica's station (queue-depth / sojourn recorders live there
    once admission or observation is armed). *)

val set_site_slowdown : t -> site:int -> factor:int -> unit
(** Gray failure: the replica at [site] serves [factor]x slower. *)

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

(** {2 Run counters} *)

val counters : t -> (string * int) list
(** The run's protocol counters under their report names, the one place
    they are named: [read.*], [write.count] and [rmw.*] always; with
    retransmission armed ({!enable_retrans}), also
    [failover.rpc_{calls,retries,exhausted}]. *)
