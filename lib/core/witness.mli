(** Recorded transactions and the serialization order the system claims.

    The protocols we simulate all produce a natural serialization witness —
    Spanner's commit / snapshot timestamps, Gryff's carstamps — and record
    it with each transaction. Two checkers read these records:
    {!Check_online} verifies the one order the timestamps claim, and
    {!Check_graph} takes only each key's write order from them and decides
    the model over everything else. *)

type key = string
type value = int

type txn = {
  proc : int;
  reads : (key * value option) list;
  writes : (key * value) list;
  inv : int;
  resp : int;  (** [max_int] when the response never arrived *)
  ts : int;  (** serialization timestamp claimed by the system *)
  rank : int;  (** tie-break within equal [ts]: lower first (mutators 0, readers 1) *)
}

type mode = [ `Strict | `Rss | `Sequential ]
(** The real-time rule: every pair of transactions ([`Strict]), the regular
    one of RSS/RSC ([`Rss]), or none beyond sessions ([`Sequential]). *)

val mutator_rank : writes:(key * value) list -> int
(** 0 for mutators, 1 for read-only — the conventional [rank]. *)
