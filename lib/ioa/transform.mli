(** The Lemma C.5 / Lemma 1 transformation, executably.

    Given a schedule whose operations satisfy causal precedence with respect
    to a serialization S — i.e. S orders the complete operations consistently
    with potential causality — reorder the {e whole} schedule so that:
    - every process's sub-execution is untouched (the executions are
      equivalent, so final states agree: Theorem 2), and
    - the service interactions become sequential in S's order (the
      real-time-precedence / strictly serializable shape).

    Each action moves to the position of the S-maximal system-facing action
    that causally precedes it; ties keep schedule order. This is exactly the
    ≺ / ≡ construction in the proof. *)

type report = {
  transformed : Schedule.t;
  equivalent : bool;  (** per-process projections preserved *)
  valid : bool;  (** still a well-formed execution (channels, processes) *)
  sequential : bool;
      (** no invocation interleaves another operation's invoke-response pair *)
}

val lemma_c5 :
  sched:Schedule.t -> serialization:int list ->
  ?reads_from:(int * int) list -> unit -> (report, string) result
(** [serialization] lists op ids in S order; ops absent from it (incomplete)
    sort last. [reads_from] are causal edges between action indices (derived
    from the service's reads-from relation). Errors if S contradicts
    causality (the premise of the lemma fails). *)
