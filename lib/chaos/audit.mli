(** What the nemesis-driven consistency audits share below the driver.

    An audit runs one protocol under a fault {!Schedule.t} with a
    timeout-respawning workload, collects the execution history — including
    operations whose acknowledgement a fault swallowed, swept in as
    incomplete records — and checks it against the protocol's consistency
    model. The run itself goes through the one driver core,
    [Harness.audit], which returns a [Harness.Run.t]; this module keeps the
    pieces that sit below it: protocol names, the audit deployment and the
    nemesis schedule sized from it, disk-fault installation and scrubbing,
    the two sweeps, the stale-read controls, and the canonical trace
    serialization that lets two runs with identical inputs be compared
    byte for byte. *)

type protocol = Spanner_strict | Spanner_rss | Gryff_lin | Gryff_rsc

val protocols : protocol list

val protocol_name : protocol -> string
val protocol_of_string : string -> protocol option
val model_name : protocol -> string

(** {1 The audit deployment}

    Every audit of a protocol runs on one deployment, and everything sized
    to it — the nemesis schedule here, the workload and migrations in
    [Harness] — reads it from {!deployment}. *)

type deployment =
  | Spanner_wan of Spanner.Config.t
  | Gryff_wan of Gryff.Config.t

val deployment : protocol -> deployment
(** The protocol's audit deployment: {!Spanner.Config.wan3} or
    {!Gryff.Config.wan5}, in the protocol's mode. *)

val nemesis_schedule :
  protocol -> Nemesis.preset -> duration_s:float -> seed:int -> Schedule.t
(** A nemesis schedule sized from {!deployment}: one site per row of
    [rtt_ms], the distinct [leader_site]s in shard order as the
    {!Nemesis.Leader_kill} victim pool (none for the leaderless Gryff), and
    the deployment's ε ([0] for Gryff, which has no TrueTime). *)

(** {1 Storage fault injection}

    When a driver is given a [disk_faults] spec it installs a
    {!Sim.Durable.Faults} control {e before} building the cluster (stores
    register at creation), ties storage damage to the schedule's [Crash]
    events, re-verifies the placement directory's log on site-0 [Recover],
    and arms the background {!Sim.Scrub} pass. Fault placement draws from
    the control's own seeded stream, so network schedules stay
    byte-identical with or without disk faults armed. *)

type disk_faults = {
  df_spec : Sim.Durable.Faults.spec;  (** per-crash damage probabilities *)
  df_seed : int;  (** the control's dedicated stream *)
  df_scrub_period_us : int;  (** 0 disables the background scrub *)
  df_integrity : bool;
      (** [false] builds checksum-blind stores — the broken control
          configuration the battery must catch *)
}

val default_disk_faults :
  ?spec:Sim.Durable.Faults.spec -> seed:int -> unit -> disk_faults
(** Integrity on, 250 ms scrub period, [spec] defaulting to
    {!Sim.Durable.Faults.default_spec}. *)

val install_disk_faults : disk_faults option -> Sim.Durable.Faults.ctl option
(** Install the control — call {e before} building the cluster, and
    {!Sim.Durable.Faults.retire} the result even on exceptional exit.
    Used by the driver core. *)

val arm_scrub :
  Sim.Engine.t -> tracer:Obs.Trace.t -> dctl:Sim.Durable.Faults.ctl option ->
  disk_faults:disk_faults option -> duration_s:float -> Sim.Scrub.stats option
(** Arm the background scrub pass on a dedicated station; [None] without an
    installed control or with a zero scrub period. *)

val sweep_spanner_txn :
  Spanner.Cluster.t -> proc:int -> inv:int -> writes:(int * int) list ->
  txn:int -> bool
(** If attempt [txn] committed, record it as an incomplete transaction
    (resp = max_int) — a committed-but-unacknowledged op whose writes are
    visible. Returns whether it was recorded. *)

val sweep_gryff_write :
  Gryff.Cluster.t -> proc:int -> inv:int -> key:int -> value:int ->
  cs:Gryff.Carstamp.t -> unit
(** Record a write whose propagate phase started but whose acknowledgement
    never arrived, as an incomplete operation. *)

val spanner_trace : Rss_core.Witness.txn array -> string
(** Canonical serialization of a Spanner history, one line per
    transaction — what determinism checks digest. *)

val gryff_trace : Gryff.Cluster.record array -> string
(** Canonical serialization of a Gryff history, one line per operation. *)

val spanner_stale_control :
  check:(Rss_core.Witness.txn array -> 'v) -> Rss_core.Witness.txn array ->
  'v option
(** Corrupt one completed read in the history to an older version (or a
    value nobody wrote) and re-judge the corrupted copy with [check].
    [None] if no eligible read exists; otherwise [check]'s verdict, which
    should be a failure — the audit's proof that the checker has teeth. *)

val gryff_stale_control :
  check:(Gryff.Cluster.record array -> 'v) -> Gryff.Cluster.record array ->
  'v option
(** The same control for a Gryff history. *)
