(** Named metrics registry: counters, gauges and latency histograms.

    Replaces the per-driver stats records with one registry whose
    snapshots are plain sorted association lists — deterministic for a
    given seed, cheap to diff in tests, and printable through a single
    Summary-style table renderer. Every driven run's counters reach their
    consumers only through a snapshot: each cluster names its own
    ([Spanner.Cluster.counters], [Gryff.Cluster.counters]) and the
    harness names the network, flow, storage and op families. The
    clusters' [stats] and Gryff's [retrans_stats] (which [counters] reads)
    and [flow_stats] remain public only for the perfbench assembly, which
    builds clusters without the harness.

    Metric identity is [name] plus optional [labels]; labels render into
    the full name as [name{k=v,...}].  Histograms are backed by
    [Stats.Recorder]. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Get-or-create. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} *)

val set_gauge : t -> ?labels:(string * string) list -> string -> float -> unit
val max_gauge : t -> ?labels:(string * string) list -> string -> float -> unit
(** [max_gauge] keeps the maximum of all observations. *)

(** {1 Histograms} *)

val histogram : t -> ?labels:(string * string) list -> string -> Stats.Recorder.t
(** Get-or-create a recorder registered under [name]. *)

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by full name *)
  gauges : (string * float) list;
  histograms : (string * Stats.Recorder.t) list;
}

val snapshot : t -> snapshot

val empty : snapshot

val of_counts : (string * int) list -> snapshot
(** Wrap a plain counter list (sorted on the way in). *)

val counter_value : snapshot -> string -> int
(** [0] when absent. *)

val gauge_value : snapshot -> string -> float
(** [nan] when absent. *)

val histogram_of : snapshot -> string -> Stats.Recorder.t option

val print_table : ?header:string -> snapshot -> unit
(** One Summary-style rendering for every driver: a count table for
    counters and gauges, then a latency table for histograms.  Empty
    histograms print [n/a] rather than raising. *)
