(** Load-generation client models (§6 and §7).

    - {!closed_loop}: a fixed number of clients, each issuing its next
      operation as soon as the previous one completes (plus optional think
      time) — the Gryff evaluation and the throughput experiments.
    - {!partly_open}: Schroeder et al.'s partly-open model — sessions arrive
      as a Poisson process at rate λ; after each operation a session stays
      with probability [p] (thinking for [think_us]) or departs. The paper's
      Spanner experiments use p = 0.9 (mean session length 10) and H = 0,
      with a fresh t_min per session.
    - {!slots}: the chaos audits' timeout-respawning sessions — a fixed
      number of slots, each running one session at a time; a session whose
      operation misses its timeout is abandoned and a fresh one takes the
      slot.

    The [body] callback issues exactly one operation/transaction and invokes
    the given continuation when it completes. *)

type body = client:int -> (unit -> unit) -> unit

val closed_loop :
  Sim.Engine.t -> n_clients:int -> ?think_us:int -> body:body -> until:int ->
  unit -> unit
(** Schedules the client loops; stops issuing new operations at [until]
    (in-flight operations still run to completion when the engine drains). *)

val partly_open :
  Sim.Engine.t -> rng:Sim.Rng.t -> arrival_rate_per_sec:float -> stay:float ->
  ?think_us:int -> body:body -> until:int -> unit -> int
(** Returns a conservative upper bound on the number of sessions that will
    have been created by [until]. The [client] id passed to [body] is the
    session id (fresh per session). Raises [Invalid_argument] for a
    non-positive arrival rate or a stay probability outside [\[0, 1)]. *)

val slots :
  Sim.Engine.t -> n_slots:int -> timeout_us:int ->
  on_timeout:(client:int -> unit) -> body:body -> until:int -> unit -> unit
(** [n_slots] session slots, each issuing its session's next operation as
    soon as the previous one completes. An operation still outstanding
    [timeout_us] after it was issued abandons its session: [on_timeout] is
    told, the session is never used again (its late acknowledgement is
    ignored) and a fresh session takes the slot. The [client] id passed to
    [body] is the session id: slot [s]'s [k]-th session is
    [s + k * n_slots], so [client mod n_slots] is its slot. The first
    operations are issued synchronously, at the call; stops issuing at
    [until]. *)
