(** Declarative fault schedules.

    A schedule is a list of timed fault events applied to a simulated
    deployment — e.g. [at 2s: partition [0] from [1; 2]; at 5s: heal]:

    {[
      Schedule.[ at_s 2.0 (Partition ([ 0 ], [ 1; 2 ])); at_s 5.0 Heal ]
    ]}

    {!apply} arms each event on the engine clock before the run starts, so a
    chaotic run is a pure function of (workload seed, schedule) — and, when
    the schedule came from {!Nemesis.generate}, of (workload seed, nemesis
    seed). *)

type fault =
  | Partition of int list * int list
      (** Sever both directions between every pair of the two groups. *)
  | Isolate of int list  (** Sever the sites from everyone else. *)
  | Block of int list * int list
      (** Asymmetric: block only [src -> dst] directions. *)
  | Heal  (** Unblock all links (partitions only, not crashes). *)
  | Crash of int list
  | Recover of int list
  | Loss of { links : (int * int) list; prob : float }
  | Duplicate of { links : (int * int) list; prob : float }
  | Delay of { links : (int * int) list; extra_us : int }  (** Latency spike. *)
  | Reorder of { links : (int * int) list; prob : float; max_extra_us : int }
  | Clear_links  (** Reset loss / duplication / delay / reorder everywhere. *)
  | Epsilon of int  (** Set TrueTime ε (µs) — no-op without a clock. *)
  | Epsilon_reset  (** Restore ε as it was when {!apply} ran. *)
  | Slow of { site : int; factor : int }
      (** Gray failure: multiply the service cost of every station at the
          site by [factor]. {!apply}'s network-level injector treats this as
          a no-op — stations belong to the protocol deployment, so drivers
          apply the slowdown from their [on_fault] hook (exactly as the
          disk presets couple storage damage to [Crash] events). *)
  | Slow_clear  (** Restore every station to normal service. *)

type event = { at_us : int; fault : fault }

type t = event list

val at_s : float -> fault -> event
val at_us : int -> fault -> event

val links_between : int list -> int list -> (int * int) list
(** Both directions of every cross pair — the link set for loss / delay /
    reorder faults between two site groups. *)

val links_of_site : n:int -> int -> (int * int) list
(** Every link touching one site, both directions. *)

val sites_except : n:int -> int list -> int list

val end_of_faults : t -> int
(** Time (µs) of the last event. Schedules end with their heal / recover /
    clear events, so liveness assertions measure from here. *)

val apply :
  t -> engine:Sim.Engine.t -> net:Sim.Net.t -> ?tt:Sim.Truetime.t ->
  ?tracer:Obs.Trace.t -> ?on_fault:(event -> unit) -> unit -> int
(** Schedule every event on the engine (events in the past fire immediately
    when the engine next runs). Returns the number of events armed.
    [tracer] records each injection as a [Fault]-kind instant (default
    disabled); [on_fault] fires as each event is injected — audit drivers
    use it to count faults and log. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
