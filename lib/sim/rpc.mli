(** At-least-once request helper: the attempt, timeout and settle
    mechanics of a retransmitted request. Whether a client may re-send is
    not decided here: {!Flow.may_resend} decides every re-attempt.

    [call] runs an attempt function and arms a per-attempt timeout; if no
    reply lands in time it re-runs the function, doubling the timeout up
    to [max_backoff_us], until [max_attempts] attempts have gone
    unanswered — then reports a failure. Late replies from superseded
    attempts, and replies that land after the call gave up, are absorbed
    by per-call settled state, so a callee observes at-least-once delivery
    and the caller sees exactly one result. Settling cancels the pending
    timeout ({!Engine.cancel}), so a call answered in time leaves no timer
    behind in the engine queue, even when the reply lands synchronously
    inside the attempt. The timeout is still scheduled (and then
    cancelled) in that case, so the sequence of pushes does not depend on
    reply timing.

    Determinism: backoff jitter is drawn from the [rng] stream handed to
    {!create}, and only when an attempt actually retries — a run in which
    every first attempt succeeds consumes no randomness here, so arming the
    helper does not perturb fault-free seeded experiments. A re-attempt
    that {!Flow.may_resend} refuses draws nothing either.

    Batching: the retry timers here deliberately sit {e above} the
    {!Net.post} batching layer. An attempt that sends via a batched path
    may see its request coalesced (and so delayed up to the flush
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
    re-attempt the attempt cap allows is then decided by {!Flow.may_resend}
    as its timer fires. Server-side recovery and outcome queries, which
    are no client re-offers, use a helper without one. *)

type ('c, 'a) call
(** One logical call: a caller context of type ['c], replies of type
    ['a]. It is one record, with one reply closure and one timeout closure
    that serve every attempt. *)

val call :
  ?name:string ->
  ?expires:int ->
  t ->
  'c ->
  int ->
  attempt:(('c, 'a) call -> unit) ->
  on_reply:('c -> 'a -> unit) ->
  on_fail:('c -> unit) -> unit
(** [call t ctx id ~attempt ~on_reply ~on_fail] starts a call with the
    caller's context [ctx] and an int [id] naming the call within it (a
    quorum phase and the replica a leg asks, say). The three functions
    take the context as an argument, so a caller can build them once and
    share them across calls; a call then allocates only its record and
    its two closures.

    [attempt c] must (re)send the request and route the reply to
    [ok c]; it may be invoked several times, so the remote handler must be
    idempotent. Exactly one of [on_reply ctx v], with the first reply, and
    [on_fail ctx], after the attempt budget is exhausted or a re-attempt
    is refused, fires, once.

    On a helper created with a [flow], {!Flow.may_resend} decides each
    re-attempt from the op's [expires] and the call's send count, which
    starts at 1 and counts every re-attempt and {!resend} that went out:
    a call never sends more than {!Flow.max_sends} times. A refusal
    settles the call with [on_fail] and counts as abandoned, not
    exhausted.

    With a tracer installed (see {!set_tracer}) each call records one
    [Rpc] span named [name] (default ["rpc.call"]) that stays the ambient
    parent of every attempt — including retransmissions fired from the
    backoff timer — so network hops of later attempts still link to the
    call that caused them; retries, exhaustion and refusals add instant
    markers. *)

val ctx : ('c, 'a) call -> 'c
val id : ('c, 'a) call -> int

val attempt : ('c, 'a) call -> int
(** The attempt in flight, from 1; read it inside [attempt], as a later
    timeout moves it on. *)

val ok : ('c, 'a) call -> 'a -> unit
(** The call's reply closure. Replies after the first, and replies that
    land after the call gave up, are absorbed. *)

val resend : ('c, 'a) call -> after_us:int -> (unit -> unit) -> unit
(** A re-offer inside an attempt (after a NACK, say): if
    {!Flow.may_resend} passes it on the call's send count, the count
    grows and [k] runs after [after_us] ({!Flow.backoff}); otherwise [k]
    never runs. Raises [Invalid_argument] on a helper without a flow. *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Install a span sink. The default is [Obs.Trace.disabled], under which
    {!call} behaves exactly as before tracing existed. *)

(** {2 Counters} *)

val calls : t -> int
val retries : t -> int

val exhausted : t -> int
(** Calls that failed after spending their attempt budget. *)
