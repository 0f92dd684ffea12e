(** Deciding a model over a fixed write order, by topological sort.

    Each key's writes are ordered as the system claims: the claimed
    (ts, rank, inv, index) order of that key's writers. Nothing else of
    the claimed order is trusted; with the write order fixed, checking is
    polynomial (Biswas–Enea, "On the Complexity of Checking Transactional
    Consistency"). Nodes are transactions; edges are the dependency-graph
    edges of Raad–Lahav–Vafeiadis — [po] (each process's transactions in
    (inv, index) order), [ww] (each key's write order), [rf] (writer to
    reader, by unique values), [rw] (a reader precedes the writer after
    the one it read, or the key's first writer if it read nil) — the
    caller's [msg] edges, and the mode's real-time rule [rt]: under
    [`Strict] a completed transaction precedes every one invoked after its
    response; under [`Rss] a completed mutator precedes every later
    mutator, and a completed writer of a key every later reader of it.
    Reads of incomplete transactions ([resp = max_int]) add no edges.
    Real-time edges run through time-sorted chains of barrier nodes, so the
    graph has O(m) edges for [m] transactions and key occurrences, built
    in O(m log m). Every topological order is a legal serialization that
    respects the model, so the checker decides models that are not local,
    such as RSC across keys. *)

val check :
  ?edges:(int * int) list -> mode:Witness.mode -> Witness.txn array ->
  (int array, string) result
(** [Ok order] lists every transaction index once, in an order that
    witnesses the model: a certificate. [Error m] names a read of a value
    no transaction wrote, or one cycle as transaction indices and edge
    kinds, barriers elided: ["cycle: txn 4 -rf-> txn 6 -po-> txn 7 -rw->
    txn 4"]. [(a, b)] in [edges] requires [a] to be serialized before [b].
    Precondition: written values are unique per key, except that
    consecutive writers of a key may write one value (an rmw writing back
    what it read); a read of that value reads the run. *)

(** {2 Shared with {!Check_online}} *)

type ids = {
  n_keys : int; roff : int array; rkey : int array;
  woff : int array; wkey : int array; wval : int array;
  n_procs : int; pid : int array;
}
(** Keys and processes as dense ids, by first sight: txn [i]'s reads have
    key ids [rkey.(roff.(i))] up to [rkey.(roff.(i + 1) - 1)], in list
    order; its writes likewise, values in [wval]; its process is
    [pid.(i)]. *)

val index : Witness.txn array -> int -> ids
(** [index txns n] interns the first [n] transactions. *)

val orders : Witness.txn array -> int -> ids -> int array * int array
(** The first [n] transactions' indices in claimed (ts, rank, inv, index)
    order, and grouped by process in (inv, index) order. *)

val group_by : int -> int array -> int array -> int array * int array
(** [group_by n_groups group seq] is [(off, by)]: [seq]'s members grouped
    by [group.(e)], [seq]'s order kept within a group; group [g] occupies
    [by.(off.(g))] up to [by.(off.(g + 1) - 1)]. *)
