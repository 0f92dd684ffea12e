(** An OSC(U)-style register service (Lev-Ari et al., compared in
    Appendix A.2), as the single-key restriction of the PO store.

    Writes serialize synchronously at the log head, so every operation that
    precedes a write in real time is ordered before it — OSC(U)'s
    characteristic guarantee. Reads serve from a monotone, possibly-stale
    prefix (Fig. 13's behaviour): sequential consistency plus the
    into-writes real-time edges, but {e not} RSC — a completed write may be
    invisible to a causally-unrelated later read. Tests verify exactly this
    split with the model checkers. *)

type t

val create :
  Sim.Engine.t -> rng:Sim.Rng.t -> ?base_latency_us:int -> ?max_staleness_us:int ->
  unit -> t

type session

val session : t -> session

val read : session -> key:string -> (int option -> unit) -> unit

val write : session -> key:string -> value:int -> (unit -> unit) -> unit
(** Values must stay unique per key across the run for history checking. *)

val history : t -> Rss_core.Txn_history.t
(** The run as a register history of one-key transactions (for the search
    checkers; keep runs small). *)
