(** Gryff / Gryff-RSC wire protocols (§7, Appendix B, Algorithms 3-5).

    Reads: a read phase to a quorum; if the quorum disagrees, baseline Gryff
    pays a write-back phase (two WAN round trips) while Gryff-RSC returns
    immediately and hands the caller a {e dependency} — the key/value/
    carstamp that must be piggybacked onto the client's next operation so
    causally later operations observe it.

    Writes: always two phases (carstamp query, then propagate).

    Rmws: EPaxos-style consensus among the replicas — pre-accept to a fast
    quorum, slow-path accept round on disagreement, deterministic execution
    in dependency order with carstamps slotted after the base write.

    Real-time fence: write the pending dependency back to a quorum (§7.1). *)

type dep = { d_key : int; d_value : int; d_cs : Carstamp.t }

type rmw_pending
(** Coordinator-side completion state: an rmw replies only once its result
    is applied at a quorum (coordinator execution + execution acks). *)

type ctx = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  config : Config.t;
  replicas : Replica.t array;
  rmw_waiters : (Replica.instance_id, rmw_pending) Hashtbl.t;
  mutable n_reads : int;
  mutable n_read_second_round : int;  (** Lin-mode write-backs *)
  mutable n_deps_created : int;  (** Rsc-mode deferred write-backs *)
  mutable n_writes : int;
  mutable n_rmws : int;
  mutable n_rmw_slow : int;  (** rmws that needed the accept round *)
  mutable retrans : Sim.Rpc.t option;
      (** per-request retransmission for the idempotent phases *)
  mutable tracer : Obs.Trace.t;  (** span sink; [Obs.Trace.disabled] = off *)
  flow : Sim.Flow.t;
      (** overload control: every replica-bound message enters the
          replica's station through {!Sim.Flow.ingress}; default-off *)
  mutable fanout : read_fanout;  (** read fan-out policy *)
}

and read_fanout =
  | Fan_all
      (** ask every replica, keep the first quorum of replies (default —
          the historical behavior; maximal implicit hedging, maximal
          message cost) *)
  | Fan_quorum
      (** ask a bare quorum chosen by ring locality from the client's
          site — cheapest, but one gray-failed member drags every read *)
  | Hedged
      (** bare quorum first; if it has not completed after
          {!Sim.Flow.hedge_us}, fan out to the remaining replicas and let
          the first quorum win *)

val make_ctx : Sim.Engine.t -> Sim.Net.t -> Config.t -> ctx

val set_tracer : ctx -> Obs.Trace.t -> unit
(** Install a span sink on the protocol, the network underneath it, and the
    retransmission helper (if armed). Phases recorded: a baseline read's
    write-back round, RSC's deferred-dependency creation, rmw slow paths,
    plus per-message network hops and RPC retries. Passive: it never draws
    randomness or schedules events. *)

val enable_retrans : ctx -> rng:Sim.Rng.t -> unit
(** Arm retransmission (300 ms deadline, 8 attempts, capped backoff)
    on every idempotent request/reply exchange: read round one, the write's
    carstamp query, and propagates. Re-sends are safe because replica state
    merges by carstamp maximum; rmw pre-accepts are not idempotent and keep
    the bare single-send path. [rng] feeds retry jitter only, so fault-free
    runs stay byte-identical to the unarmed protocol. *)

type read_result = {
  r_value : int option;
  r_cs : Carstamp.t;
  r_rounds : int;  (** 1 or 2 *)
  r_dep : dep option;  (** new dependency to track (Rsc mode) *)
}

val read :
  ?deadline_us:int -> ctx -> client_site:int -> cid:int -> deps:dep list ->
  key:int -> (read_result -> unit) -> unit
(** With [drop_expired] armed, [deadline_us] stamps an absolute expiry on
    every request leg; replicas drop expired legs before serving them and
    the quorum forms from the rest (or never — the op is then late by
    definition and the caller's deadline accounting records it). *)

type write_result = { w_cs : Carstamp.t }

val write :
  ?on_apply:(Carstamp.t -> unit) -> ?deadline_us:int -> ctx ->
  client_site:int -> cid:int ->
  deps:dep list -> key:int -> value:int -> (write_result -> unit) -> unit
(** The dependencies are propagated by the first phase; callers clear them.
    [on_apply] fires with the chosen carstamp when the propagate phase
    starts — the point past which the value may be visible at replicas even
    if the acks never reach the client (chaos-audit accounting). *)

type rmw_result = {
  m_observed : int option;  (** value the function was applied to *)
  m_value : int;  (** value written *)
  m_cs : Carstamp.t;
  m_slow : bool;
}

val rmw :
  ctx -> client_site:int -> cid:int -> deps:dep list -> key:int ->
  f:(int option -> int) -> (rmw_result -> unit) -> unit

val fence : ctx -> client_site:int -> deps:dep list -> (unit -> unit) -> unit
(** Write the pending dependencies back to a quorum; no-op without any. *)

(** {1 Overload & gray-failure controls}

    All default-off: with none armed, no extra event is scheduled and no
    random draw occurs, so seeded schedules are byte-identical.

    The policy lives in [ctx.flow] and is armed with {!Sim.Flow.arm}.
    Gryff uses it as follows:
    - Every request leg of a read, a write and a propagate is sheddable
      and carries the op's expiry. Rmw pre-accepts, accepts, commits and
      execution acks are internal traffic and are always admitted.
    - A shed leg re-offers to the same replica after the server-suggested
      backoff, if {!Sim.Flow.retry} allows it; the quorum keeps forming
      from the other replicas meanwhile. Giving up just leaves that
      replica out of the quorum, as does an expired leg.
    - With retransmission armed, a timed-out leg is re-sent only if
      {!Sim.Flow.may_resend} allows it. NACK re-offers
      ({!Sim.Rpc.resend}) and timeout re-attempts count the same sends,
      in the leg's {!Sim.Rpc} call, so a leg reaches its replica at most
      {!Sim.Flow.max_sends} times.
    - Hedging applies to the [Hedged] fan-out only. *)

val stations : ctx -> Sim.Station.t list
(** Every replica's station, for queue-depth / sojourn observation. *)

val set_site_slowdown : ctx -> site:int -> factor:int -> unit
(** Gray failure: the replica at [site] serves [factor]x slower. Drivers
    apply this from their fault hook on {!Chaos.Schedule.Slow}. *)

val clear_slowdowns : ctx -> unit

val set_read_fanout : ctx -> read_fanout -> unit
(** Read fan-out policy: [Fan_all] (default, historical), [Fan_quorum], or
    [Hedged] (bare quorum, widened after {!Sim.Flow.hedge_us} µs). *)
