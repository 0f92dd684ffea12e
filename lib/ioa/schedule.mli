(** Schedules (Appendix C.1): finite sequences of actions of the composed
    process-and-channel system, with validation, projection, the potential
    causality relation over actions, and the commutation moves of Lemmas
    C.1-C.4. *)

type t = Action.t array

val validate : t -> (unit, string) result
(** Well-formedness of the whole execution:
    - every channel's action subsequence satisfies the Fig. 17 automaton and
      the alternating send/receive discipline;
    - each process has at most one outstanding invocation and takes no
      output step (sendto, recvfrom, invoke) while awaiting a response;
    - invocations and responses pair up per (proc, op), one op each. *)

val projection : t -> proc:int -> Action.t list
(** The process's sub-execution [α|P_i]. *)

val equivalent : t -> t -> bool
(** §3.1 equivalence: identical projections for every process. *)

val edges : ?reads_from:(int * int) list -> t -> (int * int) list
(** The direct causal edges between action {e indices} (§C.1.8): process
    order, the k-th [sendto] on a channel to its k-th [received] (FIFO
    pairing), and caller-supplied reads-from edges. Every edge points
    forward, so the schedule is a topological order of them. Raises
    [Invalid_argument] if an edge is out of range or points backwards in
    the schedule (not a real execution). *)

val causal : ?reads_from:(int * int) list -> t -> Rss_core.Causal.t
(** Potential causality: {!edges}, transitively closed. *)

val swap_adjacent : t -> int -> (t, string) result
(** [swap_adjacent t k] exchanges actions [k] and [k+1] when Lemmas C.1-C.4
    apply: both are actions of the same channel, taken by different
    processes, one from the send side ([sendto]/[sent]) and one from the
    receive side ([recvfrom]/[received]), and not a [sendto(m)]/[received(m)]
    pair of the same message. The result is validated — per the lemmas it
    must still be an execution. *)
