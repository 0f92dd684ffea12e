(** One schedule-explorer trial: a fully-specified, replayable execution.

    An {!input} pins everything a run depends on — protocol, nemesis
    preset, both seeds, workload shape, Env-style knobs (batching, disk
    fault rate), the seeded-bug control toggle and the {!Perturb} vectors —
    as plain integers/strings so it serializes to a corpus line set and
    shrinks by simple arithmetic. {!run} builds the trial's faults with
    [Harness.Env.of_preset] (the disk fault rate as its [disk_rate]),
    drives it through [Harness.audit], installs the perturbation via the
    audit's [prepare] hook, takes the run's online verdict, and condenses
    the run's behaviour into a coverage signature. Same input, same
    binary → byte-identical outcome. *)

type input = {
  protocol : Chaos.Audit.protocol;
  preset : Chaos.Nemesis.preset;
  seed : int;  (** workload/cluster stream *)
  nemesis_seed : int;  (** fault-schedule stream *)
  duration_ms : int;
  n_slots : int;  (** concurrent client-session slots — the op-count knob *)
  n_keys : int;
  timeout_ms : int;  (** per-op abandon threshold *)
  conflict_pct : int;  (** Gryff hot-key share, percent *)
  write_pct : int;  (** Gryff write ratio, percent *)
  batch_us : int;  (** batching flush deadline; 0 = batching off *)
  batch_max : int;  (** batching size cap; meaningful when [batch_us > 0] *)
  disk_rate_pct : int;  (** disk-fault probability scale, percent; 0 = off *)
  unsafe : bool;  (** seeded-bug control: Gryff client with the RSC
                      dependency fence disabled *)
  perturb : Perturb.t;
}

val base : Chaos.Audit.protocol -> input
(** A deliberately contentious baseline for [protocol]: small hot
    keyspace, short run, no perturbation, all knobs off. The search
    mutates outward from here. *)

val validate : input -> (unit, string) result
(** Bounds-check every field (positive durations/slots, percentages in
    range, batching sanity) — corpus files pass through this on load. *)

val describe : input -> string
(** One-line human summary: protocol, preset, seeds, size knobs; the
    timeout only when it differs from {!base}'s. *)

val equal : input -> input -> bool

type outcome = {
  verdict : Rss_core.Check_online.verdict;  (** the run's online verdict *)
  signature : string;
      (** coverage signature — bucketized behaviour counters, the
          checker's maximum displacement included; two runs with the same
          signature explored the same region *)
  trace_digest : string;  (** MD5 of the canonical history serialization *)
  run : Harness.Run.t;  (** full counters for reporting *)
}

val run : input -> outcome
(** Execute the trial. Deterministic: a pure function of [input]. *)

val assess :
  protocol:Chaos.Audit.protocol -> preset:Chaos.Nemesis.preset ->
  Harness.Run.t -> outcome
(** Condense a finished audit run as {!run} does: take its verdict and
    the checker's [check.max_displacement] counter, and compute its
    coverage signature and trace digest. *)

val verdict_string : Rss_core.Check_online.verdict -> string
(** Canonical wire form ["pass"], ["fail: m"], ["unknown: m"] — what
    corpus replay compares byte-for-byte. *)

val is_fail : Rss_core.Check_online.verdict -> bool
