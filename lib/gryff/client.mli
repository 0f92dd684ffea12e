(** A Gryff / Gryff-RSC client: owns the per-client dependency tuple d
    (Algorithm 3) and records operations into the cluster history.

    In Rsc mode, a one-round read that observed a not-yet-quorum-replicated
    value stores it as the dependency; the next operation's first phase
    piggybacks and clears it. In Lin mode the dependency is always empty
    (reads write back synchronously). *)

type t

val create : ?unsafe_no_deps:bool -> Cluster.t -> site:int -> t
(** [unsafe_no_deps] (default false) deliberately discards the dependencies
    Rsc-mode reads hand back, disabling the deferred write-back that makes
    Gryff-RSC sequentially consistent. Only for chaos-audit control runs —
    the resulting histories should fail the checker. *)

val proc : t -> int
val site : t -> int

val deps : t -> Protocol.dep list
(** Pending dependencies (at most one per key). The paper's clients carry a
    single tuple; the list generalizes it for out-of-band context
    propagation between processes. *)

val read :
  ?deadline_us:int -> t -> key:int -> (Protocol.read_result -> unit) -> unit
(** [deadline_us] is the op's remaining deadline: with the cluster's
    [drop_expired] armed it rides every request leg and replicas drop the
    work once it cannot start in time. *)

val write :
  ?on_apply:(Carstamp.t -> unit) -> ?deadline_us:int -> t -> key:int ->
  value:int -> (Protocol.write_result -> unit) -> unit
(** [on_apply] is {!Protocol.write}'s visibility hook (chaos audits use it
    to account for writes whose acknowledgements a fault swallowed). *)

val rmw : t -> key:int -> f:(int option -> int) -> (Protocol.rmw_result -> unit) -> unit
(** [f] maps the value read to the value written. It runs at every replica
    that executes the instance, so it must be pure and deterministic: the
    same input gives the same output, and it has no side effects. A value
    drawn inside [f] (such as {!Cluster.fresh_value}) differs between
    replicas, and the recorded write is then not the value they applied. *)

val fence : t -> (unit -> unit) -> unit
(** §7.1: write back the pending dependencies so future reads anywhere
    observe at least this client's causal past. *)

val absorb_deps : t -> Protocol.dep list -> unit
(** Context propagation: adopt dependencies received out of band (the
    receiving process propagates them before its next operation). *)
