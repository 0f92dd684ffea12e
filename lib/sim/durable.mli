(** Per-site durable storage: the state a process recovers with.

    The simulator keeps every OCaml value alive across a {!Net.set_down} /
    {!Net.set_up} cycle, so "crash" by itself loses nothing. This module is
    the discipline boundary that makes recovery meaningful: a protocol's
    recovery path may consult only what it explicitly placed in a [Durable.t]
    (its replicated log, its view number), and must treat everything else —
    lock tables, prepared-transaction maps, in-flight continuations — as
    gone. Writes are synchronous (the simulated fsync cost is the caller's
    to model, e.g. via {!Station}); the store counts appends and bytes so
    experiments can report durable-write traffic.

    Durability is also a fault surface. Every log entry is framed with a
    checksum, a slot index, a sequence number and a store epoch, and the
    seeded fault model in {!Faults} damages exactly what a real disk does at
    crash time: tears the un-fsynced tail, misdirects a write into the wrong
    slot, resurfaces a stale truncated sector, loses the last write to an
    integer register. {!read_verified} classifies the damage so recovery
    paths can repair (truncate a torn suffix, refetch a corrupt prefix from
    a peer) instead of silently replaying garbage. *)

type t

val create : site:int -> name:string -> t
(** One store per (site, role), e.g. one replication log per group member.
    If a {!Faults} control block is installed, the store registers with it
    (fault drivers install the control before building the cluster). *)

val site : t -> int
val name : t -> string

(** {2 Integer registers} (view numbers, commit indices) *)

val set_int : t -> string -> int -> unit

val get_int : t -> string -> default:int -> int

(** {2 Append-only logs}

    A log lives inside a store and supports append, O(1) random read, and
    truncation (used when a view change installs a shorter authoritative
    log). Entries are framed (checksum + slot + sequence + epoch) so
    {!read_verified} can detect storage damage. *)

type 'a log

val log : t -> 'a log
(** A fresh log backed by [t]. *)

val append : 'a log -> ?bytes:int -> 'a -> int
(** Append an entry, charging [bytes] (default 64) to the store; returns the
    entry's index. *)

val get : 'a log -> int -> 'a

val length : 'a log -> int

val journalled_length : 'a log -> int
(** The length the journal claims (equal to {!length} on an undamaged log;
    greater after a torn tail, smaller after a stale-sector resurface). *)

val truncate : 'a log -> int -> unit
(** [truncate l n] drops every entry at index >= [n]. Negative [n] is an
    [Invalid_argument], matching {!get}'s bounds discipline. *)

val to_list : 'a log -> 'a list
(** Entries in append order. *)

val replace : 'a log -> 'a list -> unit
(** Atomically install a new contents (truncate-to-zero + append all),
    charging bytes for the installed entries. *)

(** {2 Integrity} *)

type verified =
  | Ok  (** every frame checks out and the length matches the journal *)
  | Torn_tail of int
      (** the log ends at this length, below the journalled length: the
          un-fsynced tail was lost at a crash *)
  | Corrupt of int
      (** the frame at this index fails verification (misdirected write,
          resurfaced stale sector): entries from here on are suspect *)

val verified_name : verified -> string

val read_verified : 'a log -> verified
(** Verify every frame and the journalled length. Always [Ok] when the
    store was built under an integrity-disabled {!Faults} control — the
    "no checksums" configuration the audit control must catch. *)

val verified_prefix : 'a log -> 'a list
(** The entries before the first detected problem, in append order. *)

val repair_torn_tail : 'a log -> unit
(** Accept the surviving prefix as authoritative: re-journal the current
    length (the torn suffix is gone for good). *)

val set_repairer : 'a log -> (verified -> unit) -> unit
(** Called by the scrub pass when verification flags this log; the owner
    wires its repair policy (truncate / state-transfer from a peer). *)

val scrub : t -> on_flag:(verified -> unit) -> int * int
(** Verify every log in the store, invoking [on_flag] and the registered
    repairer for each failure. Returns [(entries scanned, logs flagged)]. *)

(** {2 Accounting} *)

val appends : t -> int
val bytes_written : t -> int

(** {2 Seeded storage-fault injection}

    A control block owns its own seeded stream (independent of every
    protocol RNG) and a registry of the stores created while it was
    installed. [crash_site] is the integration point for the chaos layer:
    wherever a nemesis crashes a site, the same event damages the site's
    durable state. All draws happen in a fixed order over stores in
    creation order, so fault placement is byte-identical per seed. *)

module Faults : sig
  type spec = {
    tear_prob : float;  (** P(crash tears the un-fsynced tail) *)
    max_tear : int;  (** max appends lost to one tear *)
    corrupt_prob : float;  (** P(crash misdirects a write mid-log) *)
    stale_prob : float;  (** P(crash resurfaces truncated entries) *)
    max_stale : int;  (** max resurfaced entries per crash *)
    lost_int_prob : float;  (** P(register loses its last write), per key *)
  }

  type stats = {
    mutable fs_torn : int;  (** entries dropped by tail tears *)
    mutable fs_corrupt : int;  (** misdirected-write corruptions *)
    mutable fs_resurfaced : int;  (** stale entries resurfaced *)
    mutable fs_lost_ints : int;  (** register writes lost *)
    mutable fs_crashes : int;  (** crash events that hit ≥1 store *)
  }

  type ctl

  val default_spec : spec

  val scale : float -> spec -> spec
  (** [scale r s] multiplies every damage probability of [s] by [r],
      capped at 1; the size caps ([max_tear], [max_stale]) stay. *)

  val install : ?spec:spec -> ?integrity:bool -> seed:int -> unit -> ctl
  (** Install the ambient control: stores created from now on register with
      it. [integrity:false] builds stores whose {!read_verified} is blind
      (always [Ok]) — the deliberately broken control configuration. *)

  val retire : ctl -> unit
  (** Disarm and uninstall. Already-registered stores keep their (disarmed)
      association, so post-run sweeps still see the integrity setting. *)

  val crash_site : ctl -> int -> unit
  (** Damage every registered store at [site] per the spec: tear log tails,
      misdirect writes, resurface stale sectors, lose register writes. *)

  val stats : ctl -> stats

  val stores : ctl -> t list
  (** Registered stores in creation order (the scrub pass walks these). *)

  val integrity : ctl -> bool
end
