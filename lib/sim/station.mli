(** Single-threaded service station (M/D/1-style queueing).

    Models the CPU of a single-threaded server process: each submitted job
    occupies the station for a fixed service time; jobs queue FIFO. Used by
    the saturation-throughput experiments (Fig. 6, §7.4), where the
    interesting behaviour is the knee of the throughput curve, not absolute
    speed. A zero service time degenerates to immediate execution.

    {2 Admission control}

    A station may carry {!limits}: a queue-depth bound and a sojourn-time
    bound. {!try_submit} consults them and {e sheds} an arrival that would
    exceed either, returning a typed {!pushback} with a server-suggested
    backoff (the time the current backlog needs to drain) instead of
    queueing work that is doomed to miss its deadline. {!submit} never
    sheds. With no limits installed (the default) [try_submit] behaves
    exactly like [submit] — no extra state, no schedule change.

    {2 Gray failures}

    {!set_slowdown} multiplies every subsequent job's service cost by an
    integer factor — the degraded-but-alive server a {!Chaos.Nemesis}
    [Slow_node] window models. Factor 1 (the default) is byte-identical to
    a station without the knob. *)

type t

type pushback = { retry_after_us : int }
(** Typed shed reply: the server's estimate of when retrying could be
    admitted (its current backlog, floored at one service time). *)

type limits = {
  max_queue : int;  (** shed when this many jobs are already queued *)
  max_sojourn_us : int;  (** shed when the backlog exceeds this wait *)
}

type admit = Admitted | Shed of pushback

val create : Engine.t -> service_time_us:int -> t

val service_time_us : t -> int
(** The default per-job cost this station was created with. *)

val submit : cost:int -> t -> (unit -> unit) -> unit
(** Enqueue a job costing [cost] microseconds of service (before
    {!set_slowdown}); it runs when the station reaches it. Callers that
    charge the default pass {!service_time_us}. Never sheds. *)

val try_submit : cost:int -> t -> (unit -> unit) -> admit
(** Like {!submit}, but consults the installed {!limits} first and sheds
    (without enqueueing) when the queue depth or projected sojourn exceeds
    them. Without limits installed this is exactly {!submit}. *)

val set_limits : t -> limits option -> unit
(** Install or remove admission limits. Installing limits also turns on
    {!set_observe} sampling. Raises [Invalid_argument] on non-positive
    bounds. *)

val limits : t -> limits option

val set_slowdown : t -> int -> unit
(** Multiply every subsequent job's cost by [factor] (>= 1, or
    [Invalid_argument]). Factor 1 restores normal service. *)

val slowdown : t -> int

val amortized : full:int -> int -> int
(** [amortized ~full idx] is the service cost for the [idx]-th member of a
    batched network envelope (see {!Net.post}): the head ([idx = 0]) pays
    [full], later members pay [full / 4] rounded up — one envelope is parsed
    and dispatched once, so its tail messages ride the warm path. *)

val busy_us : t -> int
(** Total busy time accumulated, for utilization reporting. *)

val jobs : t -> int

val queue_depth : t -> int
(** Jobs currently queued or in service (scheduled but not yet run). *)

val backlog_us : t -> int
(** The wait a new arrival would face before service — how far the
    station's busy horizon runs ahead of the simulated clock. *)

val shed : t -> int
(** Arrivals rejected by {!try_submit} since creation. *)

val set_observe : t -> bool -> unit
(** Sample queue depth and sojourn-at-arrival into the recorders below on
    every submit. Off by default (zero overhead); turned on automatically
    when limits are installed. *)

val queue_depths : t -> Stats.Recorder.t
(** Queue depth observed at each arrival (only while observing). *)

val sojourns : t -> Stats.Recorder.t
(** Backlog (µs) observed at each arrival (only while observing). *)
