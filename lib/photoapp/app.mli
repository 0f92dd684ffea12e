(** The paper's motivating photo-sharing application (§2.2, Table 1), built
    against an abstract transactional store so the same application code runs
    over strict-serializable Spanner, Spanner-RSS, and the PO-serializable
    store — measuring which invariants hold and which anomalies occur.

    Data model: per user, ["album:<u>"] holds the number of photos and
    ["photo:<u>:<i>"] the i-th photo's data. Adding a photo writes both in
    one read-write transaction, then enqueues a processing request.

    - I1: a reader that sees [album = n] finds non-nil data for photos 1..n.
    - I2: a worker that dequeues photo i finds its data.
    - A2: Alice finishes adding a photo, calls Bob out of band; Bob's read
      misses it.
    - A3: Alice merely {e observes} a photo someone else is adding, calls
      Bob; Bob's read misses it (allowed "temporarily" under RSS/RSC).

    Causality across the queue and phone calls is configurable: none, the
    libRSS real-time fence before switching services, or §4.2's context
    propagation. *)

type causality = No_causality | Fence_on_switch | Context_propagation

(** Abstract store session: the application is store-agnostic. [capture] /
    [absorb] move the store's causal metadata across processes. *)
type session = {
  s_rw :
    reads:string list -> writes:(string * int) list ->
    ((string * int option) list -> unit) -> unit;
  s_ro : keys:string list -> ((string * int option) list -> unit) -> unit;
  s_fence : (unit -> unit) -> unit;
  s_capture : unit -> int;  (** opaque causal token (0 = none) *)
  s_absorb : int -> unit;
}

type store = { store_name : string; new_session : unit -> session }

(** {2 Store adapters} *)

val spanner_store : Spanner.Cluster.t -> store
(** Works for both modes; fences are Spanner-RSS's §5.1 fences (no-ops would
    also be sound for strict mode, but we keep the real implementation). The
    causal token is the session's t_min. *)

val po_store : Postore.Store.t -> store
(** No causal metadata — [capture] always returns 0. *)

(** {2 Scenario driver} *)

type tally = {
  mutable adds : int;
  mutable i1_checks : int;
  mutable i1_violations : int;
  mutable i2_checks : int;
  mutable i2_violations : int;
  mutable a2_trials : int;
  mutable a2_anomalies : int;
  mutable a3_trials : int;
  mutable a3_anomalies : int;
  mutable a3_window_us : int;
      (** summed A3 window durations (onset to a retrying reader's success) *)
}

val run_scenarios :
  Sim.Engine.t -> rng:Sim.Rng.t -> store:store -> causality:causality ->
  users:int -> rounds:int -> queue_rtt_us:int -> call_latency_us:int -> tally
(** Schedules [rounds] rounds of interleaved add-photo / observe-and-call /
    worker activity for [users] users; run the engine to completion, then
    read the tally. *)

val run_store :
  rounds:int -> seeds:int list -> [ `Strict | `Rss | `Po ] -> string * tally
(** Table 1's measurement for one store: per seed, a fresh engine and a
    fresh store ([wan3] Spanner in strict or RSS mode, or the PO store),
    {!run_scenarios} with no causality, 4 users, a 2 ms queue round trip and
    1 ms calls, drained. Returns the store's name and the tally summed over
    [seeds]. *)
