(** Overload control for request legs: the one place that decides how a
    server admits a request and how a client reacts to a refusal.

    Both protocols route every server-bound message through {!ingress}
    and every re-offer of refused work through {!retry}, so Spanner and
    Gryff shed, expire and retry by the same rules. A [t] holds one
    deployment's policy knobs and its counters.

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
  drop_expired:bool -> hedge_us:int -> budget:Rpc.Budget.t option -> unit
(** Install a policy before traffic flows: [admission] limits on every
    station in [stations], expiry drops, the hedge delay ([0] = no
    hedging; [Invalid_argument] if negative) and the fleet-wide retry
    budget shared by every {!retry}. *)

val hedge_us : t -> int
val budget : t -> Rpc.Budget.t option
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

val serve : tracer:Obs.Trace.t -> Station.t -> int -> (unit -> unit) -> unit
(** [serve ~tracer station env_idx job]: the ingress without expiry or
    admission — amortized cost, span carry, FIFO service. For internal
    traffic of components that hold no [t] (replication acks). *)

val retry :
  t -> ?expires:int -> ?sends:int -> after_us:int -> (unit -> unit) -> unit
(** May refused work be re-offered? [retry t ?expires ?sends ~after_us k]
    checks, in order: the resend cap (for callers that count [sends], the
    work must have been sent fewer than 8 times), the deadline (the
    re-offer must start before [expires]) and the retry budget. If all
    pass, [k] runs after [after_us]; otherwise the work is abandoned
    (counted) and [k] never runs. Only a re-offer that passes the first two
    checks reaches the budget, so work that is never sent takes no token
    and counts no denial. *)

val abandon : t -> unit
(** Count work given up outside {!retry} (an expired NACK). *)

val hedge_issued : t -> unit
val hedge_won : t -> unit
