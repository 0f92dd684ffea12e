(** Overload control for request legs: the one place that decides how a
    server admits a request and whether a client re-sends work.

    Both protocols route every server-bound message through {!ingress},
    and every client re-offer asks {!may_resend} first ({!may_retry} and
    {!retry} ask it too), whatever triggered it: a NACK ({!retry}, or
    {!Rpc.resend} inside a call), a {!Rpc} timeout, or Spanner's failover
    RO re-issue. So Spanner and Gryff shed, expire and retry by the same
    rules. A [t] holds one deployment's policy knobs and its counters.

    {2 The ingress}

    An op's relative deadline becomes one absolute expiry at first issue
    ({!expires}); retries inherit it, so a retry storm cannot buy itself
    fresh time. A server station's queue is its [busy_until] horizon with
    deterministic FIFO service, so the projected start (now + backlog) at
    enqueue equals the dequeue-time state exactly: a leg whose projected
    start is past its expiry is dropped before any station cost is
    charged. Admitted legs pay the envelope-amortized station cost
    ({!Station.amortized}) and run their handler under the ambient span of
    the delivery hop. Legs that carry a [reject] continuation go through
    admission control ({!Station.try_submit}); a refusal — expired or shed
    with a server-suggested backoff — is NACKed back to the sender in a
    32-byte message.

    Every knob off (the state {!create} returns) is byte-identical to a
    deployment without the layer: no event is scheduled and no random draw
    is made. *)

(** Fleet-wide retry budget: a token bucket that caps retry
    {e amplification}. Each re-offer {!may_resend} passes spends one token;
    a dry bucket turns re-offers into fast-fails instead of a retry storm.
    Refill is lazy integer arithmetic over simulated time: no events, no
    randomness. *)
module Budget : sig
  type t

  val create : Engine.t -> capacity:int -> refill_period_us:int -> t
  (** A bucket holding at most [capacity] tokens (starts full), earning one
      token per [refill_period_us] of simulated time. Raises
      [Invalid_argument] on non-positive parameters. *)

  val tokens : t -> int
  (** Tokens currently available (after lazy refill). *)

  val taken : t -> int
  val denied : t -> int
end

type reject =
  | Expired  (** the projected service start was already past the expiry *)
  | Pushback of Station.pushback  (** shed by admission control *)

type stats = {
  expired : int;  (** request legs dropped expired before service *)
  shed : int;  (** request legs NACKed by admission control *)
  abandoned : int;  (** work given up: expired, over budget, late or capped *)
  hedges : int;  (** hedges actually issued *)
  hedge_wins : int;  (** hedges that beat the primary *)
}

type t

val create : Net.t -> t
(** Every knob off, every counter zero. NACKs ride [net]; expiries and
    backoffs use its engine's clock. *)

val arm :
  t -> stations:Station.t list -> admission:Station.limits option ->
  drop_expired:bool -> hedge_us:int -> budget:Budget.t option -> unit
(** Install a policy before traffic flows: [admission] limits on every
    station in [stations], expiry drops, the hedge delay ([0] = no
    hedging; [Invalid_argument] if negative) and the fleet-wide retry
    budget shared by every {!may_resend}. *)

val hedge_us : t -> int
val budget : t -> Budget.t option
val stats : t -> stats

val expires : t -> int option -> int option
(** [expires t deadline_us] is the absolute expiry of an op issued now
    with that relative deadline — [None] unless expiry drops are armed, so
    nothing rides the requests of an unprotected run. *)

val ingress :
  t -> Station.t -> tracer:Obs.Trace.t -> src:int -> dst:int ->
  ?expires:int -> ?reject:(reject -> unit) -> int -> (unit -> unit) -> unit
(** [ingress t station ~tracer ~src ~dst ?expires ?reject env_idx job]
    admits a request leg from [src] that was delivered at [dst] as member
    [env_idx] of its envelope, running [job] on [station]. Call it inside
    the [Net.post] delivery closure. [reject] marks a client-facing leg:
    only those are shed and NACKed. Internal traffic (2PC, execution
    acks) passes no [reject] and is never shed — refusing a commit-phase
    message would strand prepared participants. *)

val may_refuse : Station.t -> expires:int option -> bool
(** Can {!ingress} refuse a leg with this [expires] at [station]? Only if
    expiry drops stamped it ([Some]) or the station has admission limits.
    A sender need not build a [reject] continuation for a leg that cannot
    be refused. *)

val serve : tracer:Obs.Trace.t -> Station.t -> int -> (unit -> unit) -> unit
(** [serve ~tracer station env_idx job]: the ingress without expiry or
    admission — amortized cost, span carry, FIFO service. For internal
    traffic of components that hold no [t] (replication acks). *)

val max_sends : int
(** The resend cap (8) for work whose caller counts its sends. *)

val may_retry :
  t -> ?expires:int -> ?sends:int ref -> after_us:int -> unit -> bool
(** May the client re-send work, [after_us] from now? Checks, in order:
    the resend cap ([!sends < max_sends], for callers that count sends),
    the deadline (start before [expires]) and the budget, which only a
    re-offer passing the first two reaches. A pass counts in [sends] at
    once, so re-offers decided before earlier ones went out still stop at
    the cap; a refusal counts the work as abandoned. Unarmed (no budget,
    no [expires]), every re-offer under the cap passes. *)

val may_resend :
  t -> expires:int option -> sends:int -> after_us:int -> bool
(** {!may_retry} for a caller that keeps its own send count: [sends] is
    how many times the work went out so far. A pass does not count the
    send; the caller does (a {!Rpc} call keeps the count in its record). *)

val backoff : t -> after_us:int -> (unit -> unit) -> unit
(** The ["txn.backoff"] event of a re-offer that {!may_resend} passed:
    [k] runs after [after_us]. *)

val retry :
  t -> ?expires:int -> ?sends:int ref -> after_us:int -> (unit -> unit) ->
  unit
(** A NACK re-offer: if {!may_retry} allows it, [k] runs after [after_us]
    (a ["txn.backoff"] event); otherwise [k] never runs. *)

val abandon : t -> unit
(** Count work given up outside {!may_retry} (an expired NACK). *)

val hedge_issued : t -> unit
val hedge_won : t -> unit
