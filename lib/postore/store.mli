(** A process-ordered (PO) serializable transactional store (§2.5) — the
    "too weak" point of the paper's comparison.

    Transactions execute in one global total order (so I1-style
    single-service invariants hold), and each session reads a monotonically
    advancing prefix that always contains its own transactions (process
    order). But a session's read snapshot may lag real time by up to
    [max_staleness_us], and nothing carries causality across services or
    out-of-band messages — exactly the behaviour that breaks I2 and exposes
    anomalies A2/A3.

    This is the idealized one-round, non-blocking design that PO
    serializability permits (the SNOW-optimal read-only transactions the
    paper cites): reads always complete in [base_latency_us]. *)

type t

type key = string
type value = int

val create :
  Sim.Engine.t -> rng:Sim.Rng.t -> ?base_latency_us:int -> ?max_staleness_us:int ->
  unit -> t
(** Defaults: 1 ms base latency, 100 ms staleness bound. *)

type session

val session : t -> session
val proc : session -> int

val rw :
  session -> reads:key list -> writes:(key * value) list ->
  ((key * value option) list -> unit) -> unit
(** Read-write transactions serialize at the log head (they read the latest
    state) and advance the session's prefix. *)

val ro : session -> keys:key list -> ((key * value option) list -> unit) -> unit
(** Reads a possibly stale prefix, never older than the session has already
    observed. *)

val records : t -> Rss_core.Witness.txn array
(** History with witness timestamps = log positions. *)

val check_history : t -> (unit, string) result
(** Verifies PO serializability with {!Rss_core.Check_graph}
    ([`Sequential] mode, each key's write order fixed by log position). *)
