(** Multi-writer regular registers, after Shao, Pierce & Welch (Appendix A).

    MWR-Weak is the base of their lattice: {e each read individually} can be
    serialized among all writes, respecting the real-time order between the
    read and the writes (and among writes), such that it returns the value of
    the immediately preceding write to its key — different reads may assume
    different serializations of concurrent writes, so no global total order
    is implied. This is exactly why Fig. 15's execution is MWR-sat but
    RSC-unsat: each process's reads pick their own write order.

    The check is polynomial (per read, a forced-interleaving test), unlike
    the search checkers. The stronger variants (MWR-WO, MWR-RF, MWR-NI)
    constrain {e pairs} of serializations and are not implemented; see
    DESIGN.md. *)

val check_weak : Txn_history.t -> (unit, string) result
(** [Ok ()] iff every complete read (and rmw observation) admits such a
    serialization: the write it reads from is not forced to be overwritten
    before the read (no same-key write real-time-between them), reads-from
    never points real-time-backwards, and nil reads have no same-key write
    wholly before them. Incomplete operations impose nothing. The history
    must be a register history: [Error] names the first txn that is not a
    one-key read, write or rmw (see {!Txn_history.read}). *)

val satisfies_weak : Txn_history.t -> bool
