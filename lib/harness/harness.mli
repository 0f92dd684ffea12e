(** Experiment drivers shared by the benchmarks (bench/), the CLI (bin/),
    the schedule explorer and the tests: run one configured simulation to
    completion and return a single {!Run.t} — latency recorders, a
    metrics-registry snapshot, the run's history, and the
    history-verification verdict.

    Every driver is a thin wrapper over one driver core, split the way
    Jepsen-style harnesses split a test: a {e generator} (the protocol's
    workload, issued by a client model — closed-loop, partly-open, or the
    audits' timeout-respawning slots), a {e nemesis} (the [Env.t] fault
    schedule, gray nodes, disk damage and live migrations) and a
    {e checker} (online, optionally budgeted, or none). The core applies every
    {!Env.t} field the same way on every deployment, and always tracks
    unacknowledged writes: an attempt whose acknowledgement a fault
    swallowed is swept into the history as an incomplete op before
    checking (the complete(α) convention). On a fault-free run the tracker
    empties as ops are acknowledged, so nothing is swept.

    Tracing ([Env.trace]) is passive — it never draws randomness or
    schedules events — so a traced run follows the exact seeded schedule of
    an untraced one. *)

module Run : sig
  (** The run's execution history, protocol-shaped. *)
  type history =
    | Spanner_txns of Rss_core.Witness.txn array
    | Gryff_ops of Gryff.Cluster.record array

  (** The consistency verdict. [Unknown] surfaces exhausted checker budgets
      (and [`No_check] runs) as a value — a budget can silence the checker
      but never make it wrong. *)
  type verdict = Rss_core.Check_online.verdict =
    | Pass
    | Fail of string
    | Unknown of string

  type t = {
    latencies : (string * Stats.Recorder.t) list;
        (** named recorders in µs, e.g. [["ro"; "rw"]] for Spanner WAN runs,
            [["read"; "write"]] for Gryff WAN runs, one recorder for the
            single-DC saturation drivers *)
    metrics : Obs.Metrics.snapshot;
        (** protocol / network / fault / failover counters and gauges
            (single-DC drivers add ["throughput_tps"], ["p50_ms"], ...; all
            drivers add ["check.finish_s"], checked runs (every mode but
            [`No_check]) add ["check.added"], ["check.work"],
            ["check.max_displacement"]) *)
    check : verdict;
    records : history;
    duration_us : int;  (** simulated time at which the engine drained *)
  }

  val passed : t -> bool
  (** [check = Pass]. *)

  val latency : t -> string -> Stats.Recorder.t
  (** Recorder by name; an empty recorder when absent. *)

  val counter : t -> string -> int
  (** Metric counter by name; [0] when absent. *)

  val gauge : t -> string -> float
  (** Metric gauge by name; [nan] when absent. *)

  val gauge_opt : t -> string -> float option
  (** Like {!gauge} but [None] when the gauge is absent {e or} NaN (e.g. a
      p50 over an empty recorder) — so callers render "n/a" instead of
      leaking [nan] into tables and jq comparisons. *)

  val completed : t -> int
  (** Total recorded (post-warm-up) operations across all recorders. *)

  val n_records : t -> int

  val print_latencies : ?header:string -> t -> unit

  val print_metrics : ?header:string -> t -> unit

  val report_check : string -> verdict -> unit
  (** Print a loud warning if a run's history failed verification (or an
      unresolved-verdict note on [Unknown]); silent on [Pass]. *)

  val print_summary : ?header:string -> t -> unit
  (** Latency table, metrics table, and a loud warning if the run's history
      failed verification. *)
end

type check_mode = [ `Online | `Budget of int | `No_check ]
(** How a driver verifies its history. Every checked run is judged once,
    online: each record, sweeps included, is fed into
    {!Rss_core.Check_online} as it is recorded, so million-op histories
    verify in near-linear time. [`Online] (the default) is unbudgeted.
    [`Budget n] caps the checker's work and its suffix-fallback search at
    [n] (per key for Gryff), so a pathological history settles [Unknown]
    instead of running long. [`No_check] skips verification (the verdict
    is [Unknown]) — for benchmarking raw simulator speed. The mode never
    affects the simulation itself: record hooks draw no randomness and
    schedule no events, so seeded traces are identical across modes. *)

type reshard_spec = {
  rs_at : float;  (** when to start, as a fraction of the run's duration *)
  rs_lo : int;  (** key range [\[rs_lo, rs_hi)] to move *)
  rs_hi : int;
  rs_dst : int;  (** destination shard *)
  rs_no_fence : bool;
      (** skip the t_m real-time barrier — the {e unsafe} mutation control
          used by safety experiments; production paths pass [false] *)
}
(** A live migration armed partway through a [spanner_wan] run. *)

type flow_spec = {
  fl_admission : Sim.Station.limits option;
      (** bounded queues + load shedding at every server station; only
          client-facing request legs are shed (see {!Sim.Flow.ingress}) *)
  fl_drop_expired : bool;
      (** servers drop request legs whose riding deadline has already
          passed at their projected service start — pair with
          [Env.deadline_us] or nothing rides the envelopes *)
  fl_hedge_us : int;
      (** hedge reads still unfinished after this many µs (0 = off):
          Spanner re-issues the whole RO, Gryff widens a bare-quorum
          fan-out — see [fl_gryff_fanout] *)
  fl_budget : (int * int) option;
      (** fleet-wide retry token bucket as [(capacity,
          refill_period_us)]; a dry bucket turns client re-offers (of
          shed work, or timed-out retransmissions) into fast-fails instead
          of amplification *)
  fl_gryff_fanout : Gryff.Protocol.read_fanout option;
      (** Gryff read fan-out policy ([None] keeps the protocol default,
          [Fan_all]); Spanner drivers ignore it *)
}
(** The overload-protection policy a driver applies to its cluster before
    any traffic flows, with one {!Sim.Flow.arm} call (plus Gryff's read
    fan-out). Every field off ({!flow_default}) reproduces the unprotected
    run byte for byte. *)

val flow_default : flow_spec
(** No admission limits, no expiry drops, no hedging, no budget, default
    fan-out. *)

(** The cross-cutting run environment, one record built with
    {!Env.default} and the [with_*] combinators:

    {[ Harness.spanner_dc
         ~env:Env.(default |> with_check `Online
                   |> with_batching (Some policy)) ... ]}

    The driver core applies every field the same way on every deployment. *)
module Env : sig
  type t = {
    chaos : Chaos.Schedule.t option;
    disk_faults : Chaos.Audit.disk_faults option;
    failover : bool;
    trace : Obs.Trace.t;
    check : check_mode;
    reshard : reshard_spec list;
        (** live migrations; Gryff has no elastic placement and ignores
            them *)
    batching : Sim.Net.policy option;
        (** installed on the run's network before any traffic flows; [None]
            keeps seeded schedules byte-identical to unbatched runs *)
    deadline_us : int option;
        (** client deadline put on every operation. [None] (the default)
            means no deadline, except the 10 s fallback Spanner deployments
            arm with [failover] (and the audits' [timeout_us - 200_000]).
            An explicit value overrides those fallbacks too. *)
    flow : flow_spec option;
        (** overload protections applied to the cluster before any traffic
            flows; [None] runs unprotected and byte-identical to before *)
  }

  val default : t
  (** No chaos, no disk faults, no failover, tracing disabled, [`Online]
      checking, no reshard, batching off, no deadline, no flow policy. *)

  val with_chaos : Chaos.Schedule.t -> t -> t
  val with_disk_faults : Chaos.Audit.disk_faults -> t -> t
  val with_failover : bool -> t -> t
  val with_trace : Obs.Trace.t -> t -> t
  val with_check : check_mode -> t -> t
  (** Raises [Invalid_argument] on a non-positive [`Budget]. *)

  val with_reshard : reshard_spec list -> t -> t
  val with_batching : Sim.Net.policy option -> t -> t

  val with_deadline_us : int option -> t -> t
  (** Raises [Invalid_argument] on a non-positive deadline. *)

  val with_flow : flow_spec option -> t -> t
  (** Raises [Invalid_argument] on a negative [fl_hedge_us], and on a
      [Hedged] Gryff fan-out with [fl_hedge_us = 0] (it would hedge every
      read after 1 µs). *)

  val of_preset :
    ?disk_rate:float -> ?n_keys:int -> Chaos.Audit.protocol ->
    Chaos.Nemesis.preset -> duration_s:float -> nemesis_seed:int -> t
  (** The one recipe that turns a protocol and a nemesis preset into an
      audit environment — every chaos run (the CLI, the explorer, the
      batteries) builds its faults here:
      - chaos: {!Chaos.Audit.nemesis_schedule} seeded by [nemesis_seed];
      - failover: {!Chaos.Nemesis.requires_failover};
      - disk faults, seeded by [nemesis_seed]: without [disk_rate], the
        preset's tuned {!Chaos.Nemesis.disk_spec} if it has one; with
        [disk_rate = 0.], none; with [disk_rate = r], the tuned (or
        default) spec scaled by [r];
      - migrations: two {!audit_migrations} of an [n_keys] keyspace
        (default {!audit_keys}) when {!Chaos.Nemesis.requires_reshard}
        holds; Gryff gets none.

      Everything else is {!default}; callers refine the result with the
      [with_*] setters. Raises [Invalid_argument] on a negative
      [disk_rate]. *)
end

val spanner_wan :
  ?config:Spanner.Config.t option -> ?env:Env.t -> mode:Spanner.Config.mode ->
  theta:float -> n_keys:int -> arrival_rate_per_sec:float ->
  duration_s:float -> seed:int -> unit -> Run.t
(** §6.1: Retwis over the CA/VA/IR deployment with partly-open clients
    (a fresh session — and t_min — per arrival, stay probability 0.9).
    The first 10% of the run is warm-up and is not recorded.
    Latencies: ["ro"], ["rw"]. *)

val spanner_dc :
  ?env:Env.t -> mode:Spanner.Config.mode -> n_shards:int ->
  service_time_us:int -> n_clients:int -> n_keys:int -> duration_s:float ->
  seed:int -> unit -> Run.t
(** §6.2 saturation: closed-loop clients at one site, uniform keys. The
    first 20% is warm-up. Latencies: ["txn"]; gauges: ["throughput_tps"],
    ["p50_ms"], ["msgs_per_txn"]. *)

val gryff_wan :
  ?n_clients:int -> ?client_sites:int array -> ?env:Env.t ->
  mode:Gryff.Config.mode -> conflict:float -> write_ratio:float ->
  n_keys:int -> duration_s:float -> seed:int -> unit -> Run.t
(** §7.2: YCSB over the five-region deployment, closed-loop clients.
    [client_sites] restricts where clients run (e.g. off a slow-node
    victim); the default spreads them over all five regions.
    Latencies: ["read"], ["write"]. *)

val gryff_dc :
  ?env:Env.t -> mode:Gryff.Config.mode -> service_time_us:int ->
  n_clients:int -> conflict:float -> write_ratio:float -> n_keys:int ->
  duration_s:float -> seed:int -> unit -> Run.t
(** §7.4 overhead. Latencies: ["op"]; gauges: ["throughput_tps"],
    ["p50_ms"]. *)

(** {1 Chaos audits}

    An audit runs one protocol's default deployment under [Env.chaos] with
    timeout-respawning session slots, and judges the history against the
    protocol's model ({!Chaos.Audit.model_name}). Liveness is asserted
    separately: ops invoked after the schedule's final heal must complete
    ([op.post_heal_completed]). Every audit is a pure function of its
    inputs; {!audit_trace} serializes the history canonically so two runs
    can be compared byte for byte. *)

val audit :
  ?env:Env.t -> ?prepare:(Sim.Engine.t -> Sim.Net.t -> unit) ->
  ?config:Spanner.Config.t -> ?client_sites:int array -> ?n_slots:int ->
  ?n_keys:int -> ?timeout_us:int -> ?conflict:float -> ?write_ratio:float ->
  ?unsafe_no_deps:bool -> Chaos.Audit.protocol -> duration_s:float ->
  seed:int -> unit -> Run.t
(** Runs on the protocol's {!Chaos.Audit.deployment} ([config] overrides
    Spanner's). Spanner protocols run Retwis (Zipf 0.5);
    Gryff protocols run YCSB reads and writes ([conflict] 0.1,
    [write_ratio] 0.3) with clients at [client_sites] (default every
    replica site). [n_slots] concurrent session slots (12 Spanner, 10
    Gryff); a slot whose op misses [timeout_us] (2 s) abandons that session
    — its process id is never reused, so session-order checking stays
    sound — and continues with a fresh one. [n_keys] defaults to
    {!audit_keys}. With [env.failover] and no [env.deadline_us], every op
    carries the deadline [timeout_us - 200_000]. [unsafe_no_deps] runs the
    broken Gryff control client (RSC fence disabled). [prepare] runs right
    after the cluster is built, before any fault or workload event is
    scheduled — the schedule explorer installs its perturbation hooks
    there. Latencies: ["ops"], every completed op, no warm-up. *)

val audit_keys : Chaos.Audit.protocol -> int
(** The audit workload's default keyspace: 5 000 (Spanner), 2 000 (Gryff). *)

val audit_migrations :
  Chaos.Audit.protocol -> n_keys:int -> int -> reshard_spec list
(** [audit_migrations protocol ~n_keys n]: [n] live migrations of the
    Zipfian-hot eighth of an [n_keys] keyspace, at 30%, 55%, ... of the
    run, each to a different shard of the protocol's
    {!Chaos.Audit.deployment} — the workload for the reshard, hot-split and
    torn-migration presets. Empty for Gryff, which has no elastic
    placement. *)

val audit_trace : Run.t -> string
(** The canonical history serialization ({!Chaos.Audit.spanner_trace} /
    {!Chaos.Audit.gryff_trace}). *)

val stale_control : Chaos.Audit.protocol -> Run.t -> Run.verdict option
(** Corrupt one completed read of the run's history to an older version and
    re-judge it against the protocol's model with the same (unbudgeted)
    online judge the driver arms: [Some (Fail _)] proves the checker has
    teeth; [None] when no read is eligible. Raises [Invalid_argument] when
    [r] is not a run of [protocol]'s family. *)

val liveness_ok : ?min_post_quiet:int -> Run.t -> bool
(** At least [min_post_quiet] (default 1) ops invoked after the schedule's
    last event completed. *)

val print_verdict : Chaos.Audit.protocol -> Run.t -> unit
(** The run's [history:] line, naming the protocol's model
    ({!Chaos.Audit.model_name}) on a pass. *)

val print_audit : Chaos.Audit.protocol -> Run.t -> unit
(** The audit report: latency and metrics tables, the verdict, liveness,
    and a storage-repair summary when disk damage occurred. *)

