(** Structured span tracer for the deterministic simulator.

    A tracer is a passive sink: instrumentation sites in [Sim], the
    protocol implementations and the harness record spans into it, but
    recording never draws randomness, never schedules events and never
    reads the wall clock — timestamps are supplied by the caller from
    [Sim.Engine.now].  A run with tracing enabled therefore executes the
    exact same schedule as one without, and two runs with the same seed
    produce the same span ids in the same order.

    When the shared [disabled] sink is installed every entry point is a
    single-bool-check no-op, so instrumented hot paths stay
    allocation-free and seeded runs stay byte-identical to an
    uninstrumented build. *)

type kind =
  | Client_op  (** a client-visible operation: RO/RW txn, read/write/rmw *)
  | Phase  (** a protocol phase: 2PC prepare/commit, Gryff read round *)
  | Net_hop  (** one message in flight on a directed site link *)
  | Rpc  (** a [Sim.Rpc] call, parent of its retransmitted attempts *)
  | View_change  (** replication-group election, detection to StartView *)
  | Fault  (** a chaos fault injection marker *)
  | Mark  (** generic instant annotation *)
  | Migration  (** a placement change: key-range fence/ship/epoch commit *)
  | Repair
      (** a durable-storage integrity event: scrub flag, quarantine,
          torn-tail truncation, peer state-transfer repair *)
  | Search
      (** one schedule-explorer execution: an [Explore.Search] trial run
          of the simulator under a candidate input *)

val kind_name : kind -> string

(** Span handle. [none] (= 0) is the absent span; real ids start at 1
    and are assigned sequentially, so they are deterministic. *)
type span = int

val none : span

type t

val disabled : t
(** Shared inert sink: [enabled disabled = false], every operation on it
    is a no-op returning [none]. *)

val create : unit -> t
(** A live sink that records spans. *)

val enabled : t -> bool

(** {1 Recording} *)

val begin_span :
  ?parent:span -> ?site:int -> t -> kind:kind -> name:string -> ts:int -> span
(** Open a span at simulated time [ts] (µs).  If [parent] is omitted the
    ambient {!current} span is used.  [site] tags the span with a
    site/process id (rendered as the Chrome trace [tid]); [-1]/omitted
    means "no site". Returns [none] on a disabled sink. *)

val end_span : t -> span -> ts:int -> unit
(** Close a span.  No-op for [none] or a disabled sink.  Spans still
    open at export time are rendered with zero duration. *)

val instant :
  ?parent:span -> ?site:int -> ?kind:kind -> t -> name:string -> ts:int -> unit
(** Record a zero-duration marker ([kind] defaults to [Mark]). *)

(** {1 Ambient current span}

    Protocol code is written in continuation-passing style; threading a
    span argument through every handler would be invasive.  Instead the
    tracer keeps an ambient "current" span which [Sim.Net] and [Sim.Rpc]
    set synchronously around handler invocation, so spans opened inside
    a delivery handler parent to the hop that delivered the message. *)

val current : t -> span

val with_current : t -> span -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient span set to [span], restoring the
    previous value afterwards (also on exceptions).  On a disabled sink
    this is just [f ()]. *)

(** {1 Inspection} *)

type info = {
  id : int;
  parent : int;  (** [0] = root *)
  kind : kind;
  name : string;
  site : int;  (** [-1] = none *)
  start_ts : int;  (** µs *)
  end_ts : int;  (** µs; [-1] = never closed *)
  is_instant : bool;
}

val n_spans : t -> int
val spans : t -> info array
val iter : t -> (info -> unit) -> unit

(** {1 Export} *)

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON (array form): ["X"] complete events for
    spans, ["i"] instants; [ts]/[dur] in µs (the simulator unit), [tid]
    is the site, [args] carry the span id and parent id so causal links
    survive the export.  Loadable in [chrome://tracing] and Perfetto. *)

val save_chrome : t -> path:string -> unit

