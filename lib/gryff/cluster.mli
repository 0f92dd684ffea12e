(** Assembly of a simulated Gryff / Gryff-RSC deployment, with history
    recording and per-key witness checking.

    Carstamps are per-key, so large runs are verified per key: each key's
    operations must be legal, session-monotone, and respect the regular
    real-time constraint in carstamp order (the RSC restriction to one key;
    [Lin] mode checks the full real-time order instead). Cross-key causality
    is exercised by the search-checker tests on small histories. *)

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

val check_records : mode:Config.mode -> record list -> (unit, string) result
(** Check an explicit record set against [mode]'s model instead of a
    cluster's collected history: each key's records through
    {!Rss_core.Witness.check}, keys in ascending order, so an [Error] names
    the smallest failing key. The independent per-key oracle that tests
    compare [Harness.judge] against; driven runs are never judged by it. *)

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
