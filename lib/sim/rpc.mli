(** At-least-once request helper: the attempt, timeout and settle
    mechanics of a retransmitted request. Whether a client may re-send is
    not decided here: {!Flow.may_retry} decides every re-attempt.

    [call] runs an attempt thunk and arms a per-attempt timeout; if no reply
    lands in time it re-runs the thunk, doubling the timeout up to
    [max_backoff_us], until [max_attempts] attempts have gone unanswered —
    then delivers [None]. Late replies from superseded attempts, and replies
    that land after the call gave up, are absorbed by per-call settled
    state, so a callee observes at-least-once delivery and the caller sees
    exactly one result. Settling cancels the pending timeout
    ({!Engine.cancel}), so a call answered in time leaves no timer behind
    in the engine queue, even when the reply lands synchronously inside
    [attempt]. The timeout is still scheduled (and then cancelled) in that
    case, so the sequence of pushes does not depend on reply timing.

    Determinism: backoff jitter is drawn from the [rng] stream handed to
    {!create}, and only when an attempt actually retries — a run in which
    every first attempt succeeds consumes no randomness here, so arming the
    helper does not perturb fault-free seeded experiments. A re-attempt
    that {!Flow.may_retry} refuses draws nothing either.

    Batching: the retry timers here deliberately sit {e above} the
    {!Net.post} batching layer. An attempt thunk that sends via a batched
    path may see its request coalesced (and so delayed up to the flush
    deadline), which the timeout already dwarfs; the timers themselves are
    engine events and never buffer, so retransmission cadence is unaffected
    by link batching. *)

type t

val create :
  Engine.t -> rng:Rng.t -> ?flow:Flow.t -> ?timeout_us:int ->
  ?max_backoff_us:int -> ?max_attempts:int -> unit -> t
(** Defaults: 500 ms first-attempt timeout (above the worst WAN round trip
    in the paper's deployments), 2 s backoff cap, 8 attempts.

    A helper for a client's calls is created with its [flow]: each
    re-attempt the attempt cap allows is then decided by {!Flow.may_retry}
    as its timer fires. Server-side recovery and outcome queries, which
    are no client re-offers, use a helper without one. *)

val call :
  ?name:string ->
  ?expires:int ->
  ?sends:int ref ->
  t ->
  attempt:(attempt:int -> ok:('a -> unit) -> unit) ->
  on_result:('a option -> unit) -> unit
(** [attempt ~attempt:n ~ok] must (re)send the request and route the reply
    to [ok]; it may be invoked several times, so the remote handler must be
    idempotent. [on_result] fires exactly once: [Some v] with the first
    reply, or [None] after the attempt budget is exhausted or a re-attempt
    is refused. A call's state is one record, and [ok] is one closure for
    every attempt.

    On a helper created with a [flow], {!Flow.may_retry} sees the op's
    [expires] and the request's [sends] (for callers that also re-offer
    inside an attempt). A refusal settles the call with [None] and counts
    as abandoned, not exhausted.

    With a tracer installed (see {!set_tracer}) each call records one
    [Rpc] span named [name] (default ["rpc.call"]) that stays the ambient
    parent of every attempt — including retransmissions fired from the
    backoff timer — so network hops of later attempts still link to the
    call that caused them; retries, exhaustion and refusals add instant
    markers. *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Install a span sink. The default is [Obs.Trace.disabled], under which
    {!call} behaves exactly as before tracing existed. *)

(** {2 Counters} *)

val calls : t -> int
val retries : t -> int

val exhausted : t -> int
(** Calls that delivered [None] after spending their attempt budget. *)
