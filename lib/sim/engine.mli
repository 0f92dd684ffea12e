(** Deterministic discrete-event simulation engine.

    Time is an [int] count of microseconds since simulation start. Events
    scheduled for the same instant fire in scheduling order (FIFO), which
    makes whole-simulation runs reproducible. *)

type t

val create : unit -> t

val now : t -> int
(** Current simulated time in microseconds. *)

val schedule : ?kind:string -> t -> after:int -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] [after] microseconds from now.
    [after < 0] is clamped to [0]. [kind] labels the event for
    {!profile}; it defaults to ["other"] and has no semantic effect. *)

val schedule_at : ?kind:string -> t -> at:int -> (unit -> unit) -> unit
(** Absolute-time variant of {!schedule}. Times in the past fire "now". *)

type handle = int
(** Names one scheduled event: its sequence number and queue slot packed
    into one immediate int, so keeping or passing a handle allocates
    nothing. Real handles are non-negative; any negative int names no
    event, so callers may use negatives as their own markers. *)

val schedule_cancellable :
  ?kind:string -> t -> after:int -> (unit -> unit) -> handle
(** {!schedule}, returning a handle for {!cancel}. The event takes the same
    place in the schedule as a {!schedule} call would. *)

val cancel : t -> handle -> unit
(** [cancel t h] drops the event [h] names if it is still queued: it will
    not run, its closure is released at once, and it no longer counts in
    {!pending}. On a handle whose event has already run or was already
    cancelled, [cancel] does nothing (even if a later event reuses its
    slot); so does a handle of an event pushed after the first 2^34 pushes,
    which then runs as scheduled. A cancelled event never runs, never
    advances the clock and never counts in {!executed}; the order of every
    other event is unchanged. Cancelling allocates nothing. *)

val step : t -> bool
(** Execute the next event. [false] if no event was pending. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Drain the event queue. [until] stops the clock at an absolute time
    (events beyond it stay queued); [max_events] bounds work as a runaway
    guard. The clock ends at the last event run (or at [until]): a
    cancelled event left in the queue does not move it. *)

val set_tie_perturb : t -> (string -> int) option -> unit
(** Install (or clear) a same-timestamp tie-break perturbation hook for
    schedule exploration. When set, each event is assigned a priority by
    calling the hook with its [kind] at scheduling time, and the queue
    orders events by (time, priority, seq) instead of (time, seq): events
    at the same instant with distinct priorities fire in priority order,
    equal priorities keep FIFO order. [None] (the default) gives every
    event priority 0, which is byte-identical to the historical
    (time, seq) schedule — installing [Some (fun _ -> 0)] is likewise a
    no-op. The hook must be deterministic for replay to be exact; it
    affects only same-instant ordering, never times. *)

val pending : t -> int
(** Number of queued events that will run: cancelled ones are not
    counted. *)

val executed : t -> int
(** Number of events executed so far; cancelled events never count. *)

(** {2 Profiling}

    Host-side observation of the simulator itself: wall-clock time spent
    per event kind and periodic samples of the queue depth. Profiling
    reads [Sys.time] but never simulated state, so enabling it does not
    change a seeded run's schedule. Off by default and free when off
    (one bool check per event). *)

val enable_profiling : ?sample_queue_every:int -> t -> unit
(** Start attributing wall time to event kinds; sample the queue depth
    every [sample_queue_every] executed events (default 1024). *)

val profiling_enabled : t -> bool

val profile : t -> (string * int * float) list
(** [(kind, events_executed, wall_seconds)] rows, sorted by kind. *)

val queue_depths : t -> Stats.Recorder.t
(** Sampled event-queue depths, as {!pending} counts them (empty unless
    profiling is enabled). *)

(** {2 Time helpers} — all return microseconds. *)

val us : int -> int
val ms : float -> int
val sec : float -> int
val to_ms : int -> float
val to_sec : int -> float
