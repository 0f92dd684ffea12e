(** At-least-once request helper: deadlines, bounded retries, capped
    exponential backoff with seeded jitter.

    [call] runs an attempt thunk and arms a per-attempt timeout; if no reply
    lands in time it re-runs the thunk, doubling the timeout up to
    [max_backoff_us], until [max_attempts] attempts have gone unanswered —
    then delivers [None]. Late replies from superseded attempts are absorbed
    by a per-call settled flag, so a callee observes at-least-once delivery
    and the caller sees exactly one result.

    Determinism: backoff jitter is drawn from the [rng] stream handed to
    {!create}, and only when an attempt actually retries — a run in which
    every first attempt succeeds consumes no randomness here, so arming the
    helper does not perturb fault-free seeded experiments.

    Batching: the retry timers here deliberately sit {e above} the
    {!Net.post} batching layer. An attempt thunk that sends via a batched
    path may see its request coalesced (and so delayed up to the flush
    deadline), which the timeout already dwarfs; the timers themselves are
    engine events and never buffer, so retransmission cadence is unaffected
    by link batching. *)

type t

(** Fleet-wide retry budget: a token bucket that caps total retry
    {e amplification}. {!Flow} owns the deployment's bucket and decides
    which re-offers spend from it: first attempts are free, each re-offer
    spends one token, and an empty bucket turns the re-offer into an
    immediate fast-fail instead of adding more work to an overloaded fleet
    — the standard defense against metastable retry storms. Refill is lazy
    integer arithmetic over simulated time: no timer events, no
    randomness, fully deterministic. *)
module Budget : sig
  type t

  val create : Engine.t -> capacity:int -> refill_period_us:int -> t
  (** A bucket holding at most [capacity] tokens (starts full), earning one
      token per [refill_period_us] of simulated time. Raises
      [Invalid_argument] on non-positive parameters. *)

  val try_take : t -> bool
  (** Spend one token; [false] (and a denial counted) when empty. *)

  val tokens : t -> int
  (** Tokens currently available (after lazy refill). *)

  val taken : t -> int
  val denied : t -> int
end

val create :
  Engine.t -> rng:Rng.t -> ?timeout_us:int -> ?max_backoff_us:int ->
  ?max_attempts:int -> unit -> t
(** Defaults: 500 ms first-attempt timeout (above the worst WAN round trip
    in the paper's deployments), 2 s backoff cap, 8 attempts. *)

val call :
  ?name:string ->
  t ->
  attempt:(attempt:int -> ok:('a -> unit) -> unit) ->
  on_result:('a option -> unit) -> unit
(** [attempt ~attempt:n ~ok] must (re)send the request and route the reply
    to [ok]; it may be invoked several times, so the remote handler must be
    idempotent. [on_result] fires exactly once: [Some v] with the first
    reply, or [None] after the attempt budget is exhausted.

    With a tracer installed (see {!set_tracer}) each call records one
    [Rpc] span named [name] (default ["rpc.call"]) that stays the ambient
    parent of every attempt — including retransmissions fired from the
    backoff timer — so network hops of later attempts still link to the
    call that caused them; retries and exhaustion add instant markers. *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Install a span sink. The default is [Obs.Trace.disabled], under which
    {!call} behaves exactly as before tracing existed. *)

(** {2 Counters} *)

val calls : t -> int
val retries : t -> int

val exhausted : t -> int
(** Calls that delivered [None] after spending their attempt budget. *)
