(** Simulated wide-area network between sites, with a per-link fault model.

    Built from a (symmetric) round-trip-time matrix in milliseconds;
    one message delivery takes half the RTT, optionally inflated by
    multiplicative jitter. Local delivery ([src = dst]) still pays the
    diagonal RTT (the paper's testbeds report ~0.2 ms in-DC).

    Every delivery consults one per-directed-link fault predicate: site
    crashes, asymmetric partitions (a blocked [src -> dst] pair), and
    probabilistic loss drop the message (charged to per-cause counters);
    duplication delivers the handler twice; latency spikes and
    reorder-by-extra-delay stretch the sampled delay. A run with no armed
    faults consumes exactly the same RNG stream as the fault-free network,
    so seeded experiments are unaffected by the fault machinery. *)

type site = int

type t

(** Why a message was dropped — crash of either endpoint, a severed link, or
    probabilistic loss, in that precedence order. *)
type drop_cause = Crash | Partition | Loss

val create :
  Engine.t -> rng:Rng.t -> rtt_ms:float array array -> ?jitter:float -> unit -> t
(** [jitter] (default 0.02) inflates each delivery by a uniform factor in
    [\[1, 1 + jitter)]. The matrix may be given as upper- or lower-triangular
    (zeros mirrored); the diagonal is the in-site RTT. *)

val n_sites : t -> int

val engine : t -> Engine.t
(** The engine deliveries are scheduled on (for components that keep timers
    alongside their network endpoints, e.g. failure detectors). *)

val base_one_way : t -> src:site -> dst:site -> int
(** Deterministic one-way delay (µs), before jitter. *)

val send : ?bytes:int -> t -> src:site -> dst:site -> (unit -> unit) -> unit
(** Deliver a message: schedule the handler after a sampled one-way delay,
    subject to the link's fault state. A dropped message never schedules its
    handler — there is no link-level retransmission, exactly like a severed
    TCP connection. *)

(** {2 Batching}

    Each directed link owns a message buffer. {!post} enqueues onto it; the
    buffer flushes into a single {e envelope} on a deadline ([batch_us]
    after the first enqueue), on a size cap ([batch_max] members), or — with
    [adaptive] — immediately whenever the link has no envelope in flight
    (and again the moment an in-flight envelope lands), which gives
    ping-pong traffic zero added latency while saturated links still
    coalesce.

    One envelope pays one fault classification (drop and duplication apply
    to the whole envelope, charged once to the usual per-cause counters),
    one delay sample, and one delivery event that runs the member handlers
    in posted order. Each handler receives its index within the envelope so
    the destination can amortize per-message service cost (see
    {!Station.amortized}). On the wire an envelope costs
    {!envelope_header_bytes} plus the sum of its members' bytes; {!send}
    and un-batched {!post} charge exactly the message's bytes.

    {!send}, un-batched {!post} and a flushed envelope take one transmit
    step: classify the link, count the drop or charge the wire, sample the
    delay, schedule the arrival, then draw the duplicate, which samples its
    own delay. So with no policy installed (the default) {!post} draws and
    schedules exactly as {!send} does, and an envelope meets the same
    faults as a lone message. *)

type policy = {
  batch_us : int;  (** flush deadline: first enqueue arms a timer this far out *)
  batch_max : int;  (** flush when this many messages are buffered *)
  adaptive : bool;
      (** flush immediately while the link has no envelope in flight, and
          again as soon as an in-flight envelope lands *)
}

val envelope_header_bytes : int
(** Fixed framing cost added to every flushed envelope. *)

val set_batching : t -> policy option -> unit
(** Install or remove the batching policy. Raises [Invalid_argument] if
    [batch_us] or [batch_max] is non-positive. *)

val batching : t -> policy option

val post : ?bytes:int -> t -> src:site -> dst:site -> (int -> unit) -> unit
(** Batched counterpart of {!send}. The handler receives the message's index
    within its delivered envelope ([0] for the first member; always [0] when
    batching is off). Messages still buffered when the simulation drains are
    lost, like any in-flight message. *)

(** {3 Batch accounting} — all zero unless a policy was installed. *)

val batch_envelopes : t -> int
(** Envelopes flushed (delivered or dropped; duplicates not counted). *)

val batch_members : t -> int
(** Total messages carried by flushed envelopes. *)

val batch_flush_deadline : t -> int
val batch_flush_size : t -> int
val batch_flush_idle : t -> int
val batch_max_members : t -> int
val batch_sizes : t -> Stats.Recorder.t
(** Members-per-envelope distribution across all flushed envelopes. *)

(** {2 Tracing}

    With a live tracer installed every delivery records a [Net_hop] span on
    the destination site, parented to the sender's ambient span, and the
    delivery handler runs with that hop as the ambient span — so spans
    opened inside the handler chain to the hop that carried the message.
    Dropped messages record an instant marker instead. Tracing draws no
    randomness and schedules nothing: a traced run delivers the same
    messages at the same times as an untraced one, batched or not. With
    the default [Obs.Trace.disabled] sink the transmit step schedules the
    handler itself, with no closure per message. *)

val set_tracer : t -> Obs.Trace.t -> unit
val tracer : t -> Obs.Trace.t

val set_delay_perturb : t -> (unit -> int) option -> unit
(** Install (or clear) a delay-perturbation hook for schedule exploration.
    When set, every sampled delivery delay adds the hook's extra
    microseconds (negative returns are clamped to 0). The hook must keep
    its own deterministic state — it is called instead of drawing from the
    network RNG, so arming it never shifts the fault model's random
    stream, and [None] (the default) leaves delays byte-identical. *)

val messages_sent : t -> int
val bytes_sent : t -> int
val rtt_ms : t -> src:site -> dst:site -> float

(** {2 Crash failures} *)

val set_down : t -> site -> unit
(** Crash a site: every message to or from it is silently dropped until
    {!set_up}. Quorum protocols should ride out up to f such crashes.
    Implemented as the crash layer of the per-link fault predicate. *)

val set_up : t -> site -> unit

val is_down : t -> site -> bool

(** {2 Per-link faults}

    All faults are per {e directed} link, so asymmetric failures (A hears B
    but not vice versa) are expressible. Probabilities must be in [\[0, 1)]. *)

val block_link : t -> src:site -> dst:site -> unit
(** Sever one direction of a link (partition building block). *)

val unblock_link : t -> src:site -> dst:site -> unit

val link_blocked : t -> src:site -> dst:site -> bool

val partition : t -> site list -> site list -> unit
(** [partition t a b] severs both directions between every pair in [a] × [b]
    (sites absent from both lists keep full connectivity — a partial,
    "bridge" partition). *)

val heal_partitions : t -> unit
(** Unblock every link. Does not touch crashes or probabilistic faults. *)

val set_loss : t -> src:site -> dst:site -> float -> unit
(** Drop each message on the link with the given probability. *)

val set_dup : t -> src:site -> dst:site -> float -> unit
(** Deliver each message twice with the given probability (the duplicate
    samples its own delay, so it may arrive before the original). Only
    protocols with idempotent handlers should be audited under duplication. *)

val set_extra_delay : t -> src:site -> dst:site -> int -> unit
(** Latency spike: add a fixed extra delay (µs) to every delivery. *)

val set_reorder : t -> src:site -> dst:site -> prob:float -> max_extra_us:int -> unit
(** Bounded reordering: with probability [prob], a message takes a uniform
    extra delay in [\[1, max_extra_us\]], letting later sends overtake it. *)

val clear_link_faults : t -> unit
(** Reset loss, duplication, extra delay, and reordering on every link.
    Partitions ({!heal_partitions}) and crashes ({!set_up}) are separate. *)

(** {2 Fault counters} *)

val messages_dropped : t -> int
(** Total drops, all causes. *)

val dropped_crash : t -> int
val dropped_partition : t -> int
val dropped_loss : t -> int
val messages_duplicated : t -> int
val messages_delayed : t -> int
(** Deliveries that took fault-injected extra delay (spike or reorder). *)
