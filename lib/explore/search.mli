(** Coverage-guided schedule search with counterexample shrinking.

    An AFL-style loop over {!Exec.input}s: a queue of interesting inputs
    is seeded with {!Exec.base} per (protocol × preset); each round picks
    a queue entry with energy left and mutates it — workload seed,
    nemesis seed, preset, perturbation vectors, batching, disk-fault
    rate, slot count — from the search's own {!Sim.Rng} stream. Every
    trial's coverage {!Exec.outcome.signature} is looked up in the seen
    map: a novel signature enqueues the input with a fresh energy budget
    (novelty earns mutations), a known one just drains energy. Every
    [Fail] verdict is shrunk by {!shrink} and serialized into the corpus
    directory. The whole search is a pure function of its {!config} —
    same config, same binary, same findings. *)

type config = {
  protocols : Chaos.Audit.protocol list;
  presets : Chaos.Nemesis.preset list;
  budget : int;  (** total executions, shrink trials included *)
  search_seed : int;
  base : Chaos.Audit.protocol -> Exec.input;
      (** per-protocol seed-input template (default {!Exec.base}) *)
  shrink : bool;  (** delta-debug failures before reporting (default on) *)
  shrink_budget : int;  (** max executions spent per failure shrink *)
  max_failures : int;  (** stop after this many distinct failures *)
  corpus_dir : string option;  (** where shrunk repros are written *)
  tracer : Obs.Trace.t;  (** Search-kind span per trial when enabled *)
  metrics : Obs.Metrics.t option;  (** explore.* counters when given *)
}

val default_config : unit -> config
(** All four protocols; the partition/loss/reorder/leader-kill/mixed
    preset pool; budget 200; shrink on with budget 60; at most 3
    failures; no corpus dir, tracing and metrics off. *)

val control_config : unit -> config
(** The seeded-bug control hunt: {!default_config} narrowed to Gryff-RSC
    clients with the RSC dependency fence disabled ([unsafe]) under the
    asym-block preset, on a hot two-key, 28%-write, 2.5 s base with a
    600 ms client timeout and 10 slots, stopping at the first failure. A
    sound search must find the planted violation. *)

type failure = {
  input : Exec.input;  (** the trial that failed, as found *)
  verdict : string;  (** its {!Exec.verdict_string} *)
  shrunk : Exec.input;  (** minimized repro (= [input] when shrink off) *)
  shrunk_verdict : string;  (** still a [fail: _] — shrinking never
                                accepts a candidate that stops failing *)
  shrink_execs : int;  (** executions the minimization spent *)
  found_at : int;  (** 1-based execution index of the find *)
  corpus_file : string option;  (** where the repro was serialized *)
}

type result = {
  execs : int;  (** total executions (= budget unless stopped early) *)
  signatures : int;  (** distinct coverage signatures seen *)
  novel : int;  (** trials that found a new signature *)
  failures : failure list;  (** in discovery order *)
  unknowns : int;  (** trials whose oracle verdict was [Unknown] *)
}

val run : config -> result

val shrink :
  budget:int -> Exec.input -> string -> Exec.input * string * int
(** [shrink ~budget input verdict] delta-debugs a failing input: halves
    the run duration and the client-slot count, switches off the
    batching / disk-fault / checker-budget knobs, and ddmin-zeroes then
    truncates the perturbation vectors — accepting a candidate only if
    it still fails (any [Fail]; the message may legitimately change as
    the history shrinks). Returns the fixpoint (or best-so-far when
    [budget] runs out), its verdict string, and the executions spent. *)

val cost : Exec.input -> int
(** The scalar the shrinker minimizes — dominated by run duration and
    slot count, plus perturbation length and active knobs. Strictly
    decreasing across accepted shrink steps. *)
