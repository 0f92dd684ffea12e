(* Incremental (online) witness verification. Semantics are exactly
   {!Witness.check} — legality, session order, and the mode's real-time
   constraint over the order claimed by the system's timestamps — but
   transactions are consumed one at a time, as the harness records them,
   instead of buffered and checked post-hoc.

   The structure exploits what the simulator gives us for free: records
   arrive in response order, and the claimed serialization order tracks real
   time closely, so almost every insert is an append. Per-key version orders
   are kept as sorted arrays indexed by the global order key, which makes
   the reads-from obligation of a new transaction a binary search and makes
   a late-arriving write invalidate exactly the reads in its key's affected
   window. Total cost is O(n log n + D) where D is the total displacement
   (positions shifted by out-of-arrival-order inserts) — near-linear for the
   histories our protocols produce, and metered so a pathological history
   degrades to an explicit [Unknown] (with a bounded {!Check_txn} search
   over the ambiguous suffix) rather than to quadratic work.

   Keys are interned to dense ids on first sight: one string lookup per key
   occurrence, after which every per-key structure is an array slot and the
   reads-from table is keyed by (key id, value) ints. Every table starts
   empty or near-empty and grows with the history, so a checker costs
   memory in proportion to its own transactions — Gryff runs one per key.
   Ids are not stored per transaction; the finish-time conflict scan looks
   each key up again, into an int array indexed by id.

   Precondition (shared with every reads-from derivation in this repo):
   written values are unique per key. Uniqueness is what makes an eager
   legality verdict definitive — once some other version sits between a read
   and the writer of its observed value, no future insert can legalise it. *)

module W = Witness

type verdict =
  | Pass
  | Fail of string
  | Unknown of string

(* Growable int vector: the only container on the hot path. *)
module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let length v = v.len

  let get v i = Array.unsafe_get v.a i

  let ensure v =
    if v.len = Array.length v.a then begin
      let a = Array.make (if v.len = 0 then 4 else v.len * 2) 0 in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end

  (* Insert at position [p], shifting the tail right. Returns positions
     displaced (the incremental-work meter). *)
  let insert v p x =
    ensure v;
    let shifted = v.len - p in
    if shifted > 0 then Array.blit v.a p v.a (p + 1) shifted;
    v.a.(p) <- x;
    v.len <- v.len + 1;
    shifted

  let push v x = ignore (insert v v.len x)

  let clear v = v.len <- 0
end

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Itbl = Hashtbl.Make (Int)

(* (key id, value) -> the arrival index that wrote it. Open addressing with
   linear probing over one flat int array: slot [s] holds key id, value and
   writer at [3s], [3s + 1], [3s + 2], key id -1 marking an empty slot. The
   load factor stays at most 3/4; lookups allocate nothing and answer -1
   when absent. *)
module Rf = struct
  type t = { mutable a : int array; mutable count : int }

  let create () = { a = [||]; count = 0 }

  let hash k v =
    let h = (k * 0x9e3779b97f4a7c1) lxor v in
    let h = h * 0xbf58476d1ce4e5b in
    h lxor (h lsr 31)

  (* Base index of [(k, v)]'s slot, or of the empty slot ending its probe. *)
  let rec probe a mask k v s =
    let b = 3 * s in
    let k' = Array.unsafe_get a b in
    if k' < 0 || (k' = k && Array.unsafe_get a (b + 1) = v) then b
    else probe a mask k v ((s + 1) land mask)

  let slot a k v =
    let mask = (Array.length a / 3) - 1 in
    probe a mask k v (hash k v land mask)

  let find t k v =
    if Array.length t.a = 0 then -1
    else
      let b = slot t.a k v in
      if Array.unsafe_get t.a b < 0 then -1 else Array.unsafe_get t.a (b + 2)

  let grow t =
    let old = t.a in
    let cap = if Array.length old = 0 then 8 else 2 * (Array.length old / 3) in
    let a = Array.make (3 * cap) (-1) in
    for s = 0 to (Array.length old / 3) - 1 do
      let b = 3 * s in
      if old.(b) >= 0 then Array.blit old b a (slot a old.(b) old.(b + 1)) 3
    done;
    t.a <- a

  let replace t k v w =
    if 4 * (t.count + 1) > 3 * (Array.length t.a / 3) then grow t;
    let b = slot t.a k v in
    if t.a.(b) < 0 then begin
      t.a.(b) <- k;
      t.a.(b + 1) <- v;
      t.count <- t.count + 1
    end;
    t.a.(b + 2) <- w
end

(* Per-key state, indexed by key id. *)
type key = {
  name : W.key;
  writers : Ivec.t;  (** arrival indices, sorted by claimed order *)
  readers : Ivec.t;  (** complete readers' arrival indices, likewise *)
}

(* Per-process state. *)
type proc = {
  session : Ivec.t;  (** arrival indices sorted by (inv, arrival) *)
  mutable last_inv : int;  (** latest invocation in arrival order *)
}

type state =
  | Checking
  | Overflowed  (** work budget exhausted; remaining adds are buffered *)
  | Failed of string

type t = {
  mode : W.mode;
  work_budget : int;
  fallback_states : int;
  (* All transactions in arrival order; [n] of the slots are live. *)
  mutable txns : W.txn array;
  mutable n : int;
  (* Arrival indices sorted by the claimed order key (ts, rank, inv, arr). *)
  ord : Ivec.t;
  (* Key name -> dense id; [keys] holds ids [0, n_keys). *)
  ids : int Stbl.t;
  mutable keys : key array;
  mutable n_keys : int;
  (* The key ids of the transaction being added: its reads', then its
     writes'. *)
  cur : Ivec.t;
  (* (key id, value) -> writer (values unique per key). *)
  rf : Rf.t;
  (* Reads whose writer had not arrived yet: (reader, key id, value),
     settled at [result] once every record is in. *)
  mutable deferred : (int * int * W.value) list;
  procs : proc Itbl.t;
  (* Append fast-path real-time watermarks. *)
  mutable max_inv_all : int;
  mutable max_inv_mut : int;
  (* Arrival-order sanity: responses non-decreasing, per-process invocations
     non-decreasing. Holds for harness record streams; when violated the
     suffix fallback can no longer soundly confirm, only stay Unknown. *)
  mutable arrival_monotone : bool;
  mutable last_resp : int;
  mutable state : state;
  mutable pending : W.txn list;  (** reversed; buffered after overflow *)
  mutable n_pending : int;
  mutable work : int;
  mutable max_displacement : int;
}

let dummy_txn =
  { W.proc = 0; reads = []; writes = []; inv = 0; resp = 0; ts = 0; rank = 0 }

(* Fills unused [keys] slots; never mutated. *)
let dummy_key = { name = ""; writers = Ivec.create (); readers = Ivec.create () }

let create ?(work_budget = max_int) ?(fallback_states = 500_000) ~mode () =
  {
    mode;
    work_budget;
    fallback_states;
    txns = [||];
    n = 0;
    ord = Ivec.create ();
    ids = Stbl.create 1;
    keys = [||];
    n_keys = 0;
    cur = Ivec.create ();
    rf = Rf.create ();
    deferred = [];
    procs = Itbl.create 1;
    max_inv_all = min_int;
    max_inv_mut = min_int;
    arrival_monotone = true;
    last_resp = min_int;
    state = Checking;
    pending = [];
    n_pending = 0;
    work = 0;
    max_displacement = 0;
  }

let n_added t = t.n + t.n_pending

let work t = t.work

let max_displacement t = t.max_displacement

(* Claimed-order comparison between arrival indices: (ts, rank, inv)
   lexicographically, arrival index as the final tie-break — the same total
   order {!Witness.order} sorts by. Plain int comparisons: this runs a few
   dozen times per transaction. *)
let cmp t i j =
  let a = Array.unsafe_get t.txns i and b = Array.unsafe_get t.txns j in
  if a.W.ts <> b.W.ts then Int.compare a.W.ts b.W.ts
  else if a.W.rank <> b.W.rank then Int.compare a.W.rank b.W.rank
  else if a.W.inv <> b.W.inv then Int.compare a.W.inv b.W.inv
  else Int.compare i j

(* First position in [v] whose element does not precede arrival index [i]
   in claimed order — [i]'s insertion point. *)
let insertion_point t v i =
  let lo = ref 0 and hi = ref (Ivec.length v) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp t (Ivec.get v mid) i < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let intern t name =
  match Stbl.find t.ids name with
  | k -> k
  | exception Not_found ->
    let k = t.n_keys in
    if k = Array.length t.keys then begin
      let a = Array.make (if k = 0 then 1 else 2 * k) dummy_key in
      Array.blit t.keys 0 a 0 k;
      t.keys <- a
    end;
    t.keys.(k) <- { name; writers = Ivec.create (); readers = Ivec.create () };
    t.n_keys <- k + 1;
    Stbl.add t.ids name k;
    k

let rec intern_keys t = function
  | [] -> ()
  | (key, _) :: rest ->
    Ivec.push t.cur (intern t key);
    intern_keys t rest

let proc_of t p =
  match Itbl.find t.procs p with
  | s -> s
  | exception Not_found ->
    let s = { session = Ivec.create (); last_inv = min_int } in
    Itbl.add t.procs p s;
    s

let pp_value ppf = function
  | None -> Fmt.pf ppf "nil"
  | Some v -> Fmt.pf ppf "%d" v

let fail t msg = match t.state with Failed _ -> () | _ -> t.state <- Failed msg

let is_complete (x : W.txn) = x.W.resp <> max_int

let is_mutator (x : W.txn) = x.W.writes <> []

let rec assoc_key name = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if String.equal k name then v else assoc_key name rest

(* The value arrival index [w] wrote to key id [k]. *)
let written_value t w k = assoc_key t.keys.(k).name t.txns.(w).W.writes

(* The value arrival index [r] read from key id [k]. *)
let read_value t r k = assoc_key t.keys.(k).name t.txns.(r).W.reads

let store_txn t i x =
  if t.n = Array.length t.txns then begin
    let a = Array.make (if t.n = 0 then 4 else t.n * 2) dummy_txn in
    Array.blit t.txns 0 a 0 t.n;
    t.txns <- a
  end;
  t.txns.(i) <- x;
  t.n <- t.n + 1

let add_work t d =
  t.work <- t.work + d;
  if d > t.max_displacement then t.max_displacement <- d

(* Validate one read of the (complete) new transaction [i]. A read is
   settled eagerly when its verdict cannot change — satisfied when it sees
   the latest preceding write, failed when its value's (unique) writer is
   already placed incompatibly — and deferred when the writer simply has
   not arrived yet. *)
let check_read t i k key v =
  let writers = t.keys.(k).writers in
  let p = insertion_point t writers i in
  let latest = if p = 0 then -1 else Ivec.get writers (p - 1) in
  match v with
  | None ->
    (* A nil read with any preceding writer can never become legal. *)
    if latest >= 0 then
      fail t
        (Fmt.str "legality: txn %d read %s=nil but txn %d wrote %s=%d before it"
           i key latest key (written_value t latest k))
  | Some v ->
    let w = Rf.find t.rf k v in
    if w < 0 then
      (* Writer not recorded yet (slow ack, unacknowledged commit swept in
         at the end): settle at finish. *)
      t.deferred <- (i, k, v) :: t.deferred
    else if w <> latest then
      (* Present but not the latest predecessor: either another version
         interposes or the writer is ordered after the reader; no future
         insert can undo either. *)
      fail t
        (Fmt.str
           "legality: txn %d read %s=%d from txn %d, but the order implies %a"
           i key v w pp_value
           (if latest < 0 then None else Some (written_value t latest k)))

(* File each read of the new (complete) transaction [i], key ids from
   [cur.(j)] on, under its key, validating it first. *)
let rec add_reads t i j = function
  | [] -> ()
  | (key, v) :: rest ->
    let k = Ivec.get t.cur j in
    (match t.state with
    | Checking -> check_read t i k key v
    | Failed _ | Overflowed -> ());
    let readers = t.keys.(k).readers in
    add_work t (Ivec.insert readers (insertion_point t readers i) i);
    add_reads t i (j + 1) rest

(* Insert one write of the new transaction [i]. Readers strictly between the
   new version and the key's next writer were previously validated against
   an older version; with uniqueness, any of them that did not observe this
   value is now definitively illegal unless its own writer is still missing
   (then it stays deferred). *)
let insert_write t i k key v =
  let { writers; readers; _ } = t.keys.(k) in
  let p = insertion_point t writers i in
  (match t.state with
  | Failed _ | Overflowed -> ()
  | Checking ->
    let next_writer = if p < Ivec.length writers then Ivec.get writers p else -1 in
    let q = ref (insertion_point t readers i) in
    while
      !q < Ivec.length readers
      && (next_writer < 0 || cmp t (Ivec.get readers !q) next_writer <= 0)
    do
      let r = Ivec.get readers !q in
      (* [r = i]: a txn's own reads precede its writes (Witness replay
         order) and were already validated against the pre-state. *)
      (if r <> i && is_complete t.txns.(r) then
         match read_value t r k with
         | Some u when u = v -> ()
         | None ->
           fail t
             (Fmt.str
                "legality: txn %d read %s=nil but txn %d (ts=%d) wrote %s=%d \
                 before it"
                r key i t.txns.(i).W.ts key v)
         | Some u ->
           if Rf.find t.rf k u >= 0 then
             fail t
               (Fmt.str
                  "legality: txn %d read %s=%d but txn %d (ts=%d) interposes \
                   %s=%d"
                  r key u i t.txns.(i).W.ts key v));
      incr q
    done);
  Rf.replace t.rf k v i;
  add_work t (Ivec.insert writers p i)

let rec add_writes t i j = function
  | [] -> ()
  | (key, v) :: rest ->
    insert_write t i (Ivec.get t.cur j) key v;
    add_writes t i (j + 1) rest

(* Session order: along each process's invocation order, claimed-order
   positions must increase. Checking both neighbours at the insertion point
   maintains the invariant inductively. *)
let check_sessions t i session =
  let x = t.txns.(i) in
  (* insertion point by (inv, arrival) *)
  let lo = ref 0 and hi = ref (Ivec.length session) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let j = Ivec.get session mid in
    let c =
      if t.txns.(j).W.inv <> x.W.inv then Int.compare t.txns.(j).W.inv x.W.inv
      else Int.compare j i
    in
    if c < 0 then lo := mid + 1 else hi := mid
  done;
  let p = !lo in
  (match t.state with
  | Failed _ | Overflowed -> ()
  | Checking ->
    if p > 0 && cmp t (Ivec.get session (p - 1)) i > 0 then
      fail t
        (Fmt.str "session order: process %d's txns %d and %d inverted" x.W.proc
           (Ivec.get session (p - 1)) i)
    else if p < Ivec.length session && cmp t i (Ivec.get session p) > 0 then
      fail t
        (Fmt.str "session order: process %d's txns %d and %d inverted" x.W.proc
           i (Ivec.get session p)));
  add_work t (Ivec.insert session p i)

let add t (x : W.txn) =
  match t.state with
  | Failed _ -> ()
  | Overflowed ->
    t.pending <- x :: t.pending;
    t.n_pending <- t.n_pending + 1
  | Checking ->
    let i = t.n in
    store_txn t i x;
    Ivec.clear t.cur;
    intern_keys t x.W.reads;
    let n_reads = Ivec.length t.cur in
    intern_keys t x.W.writes;
    (* Arrival-order sanity for the suffix fallback. *)
    if is_complete x then begin
      if x.W.resp < t.last_resp then t.arrival_monotone <- false;
      if x.W.resp > t.last_resp then t.last_resp <- x.W.resp
    end;
    let proc = proc_of t x.W.proc in
    if x.W.inv < proc.last_inv then t.arrival_monotone <- false
    else proc.last_inv <- x.W.inv;
    (* Global claimed order. *)
    let p = insertion_point t t.ord i in
    let appended = p = Ivec.length t.ord in
    add_work t (Ivec.insert t.ord p i);
    (* Append fast-path real-time check: when [i] lands at the end, every
       other transaction precedes it, so the scan condition of the offline
       checker applies directly. Mid-order inserts are caught by the exact
       scans in [result]. *)
    if appended then begin
      match t.mode with
      | `Strict ->
        if x.W.resp < t.max_inv_all then
          fail t
            (Fmt.str
               "real-time: txn %d (resp=%d) serialized after a txn invoked at \
                %d"
               i x.W.resp t.max_inv_all)
      | `Rss ->
        if is_mutator x && x.W.resp < t.max_inv_mut then
          fail t
            (Fmt.str
               "real-time: mutator %d (resp=%d) serialized after a mutator \
                invoked at %d"
               i x.W.resp t.max_inv_mut)
      | `Sequential -> ()
    end;
    if x.W.inv > t.max_inv_all then t.max_inv_all <- x.W.inv;
    if is_mutator x && x.W.inv > t.max_inv_mut then t.max_inv_mut <- x.W.inv;
    (* Incomplete txns (resp = max_int) never responded: their reads
       constrain nothing and are never re-validated (mirrors
       Witness.check_legal). *)
    if is_complete x then add_reads t i 0 x.W.reads;
    add_writes t i n_reads x.W.writes;
    check_sessions t i proc.session;
    (match t.state with
    | Checking when t.work > t.work_budget -> t.state <- Overflowed
    | _ -> ())

(* {2 Finish-time checks} — the deferred read obligations plus the exact
   real-time scans of {!Witness.check_rt_mutators} / [check_rt_conflicts] /
   [check_rt_all], run once over the maintained order. *)

(* [`Missing] separates "the writer never arrived" from a placement
   violation: with a buffered overflow suffix the writer may simply be in
   the unchecked tail, so the caller downgrades it to Unknown. *)
let settle_deferred t =
  let rec go = function
    | [] -> `Ok
    | (r, k, v) :: rest ->
      let { name = key; writers; _ } = t.keys.(k) in
      let w = Rf.find t.rf k v in
      if w < 0 then
        `Missing
          (Fmt.str "legality: txn %d read %s=%d but no txn wrote it" r key v)
      else
        let p = insertion_point t writers r in
        if p > 0 && Ivec.get writers (p - 1) = w then go rest
        else
          `Fail
            (Fmt.str
               "legality: txn %d read %s=%d from txn %d, but the order \
                implies %a"
               r key v w pp_value
               (if p = 0 then None
                else Some (written_value t (Ivec.get writers (p - 1)) k)))
  in
  go t.deferred

let scan_rt_mutators t =
  let max_inv = ref min_int in
  let i = ref 0 in
  let r = ref (Ok ()) in
  while !r = Ok () && !i < Ivec.length t.ord do
    let id = Ivec.get t.ord !i in
    let x = t.txns.(id) in
    if x.W.writes <> [] then begin
      if x.W.resp < !max_inv then
        r :=
          Error
            (Fmt.str
               "real-time: mutator %d (resp=%d) serialized after a mutator \
                invoked at %d"
               id x.W.resp !max_inv);
      if x.W.inv > !max_inv then max_inv := x.W.inv
    end;
    incr i
  done;
  !r

(* [max_reader_inv.(k)] is the latest invocation among key [k]'s readers
   serialized so far, [min_int] when none. Every stored transaction's reads
   count, incomplete ones included, as in the offline scan. *)
let scan_rt_conflicts t =
  let max_reader_inv = Array.make t.n_keys min_int in
  let rec check_writes id resp = function
    | [] -> Ok ()
    | (key, _) :: rest ->
      let m = max_reader_inv.(Stbl.find t.ids key) in
      if resp < m then
        Error
          (Fmt.str
             "real-time: writer %d of %s (resp=%d) serialized after a reader \
              invoked at %d"
             id key resp m)
      else check_writes id resp rest
  in
  let rec note_reads inv = function
    | [] -> ()
    | (key, _) :: rest ->
      let k = Stbl.find t.ids key in
      if max_reader_inv.(k) < inv then max_reader_inv.(k) <- inv;
      note_reads inv rest
  in
  let rec go p =
    if p = Ivec.length t.ord then Ok ()
    else
      let id = Ivec.get t.ord p in
      let x = t.txns.(id) in
      match check_writes id x.W.resp x.W.writes with
      | Error _ as e -> e
      | Ok () ->
        note_reads x.W.inv x.W.reads;
        go (p + 1)
  in
  go 0

let scan_rt_all t =
  let max_inv = ref min_int in
  let i = ref 0 in
  let r = ref (Ok ()) in
  while !r = Ok () && !i < Ivec.length t.ord do
    let id = Ivec.get t.ord !i in
    let x = t.txns.(id) in
    if x.W.resp < !max_inv then
      r :=
        Error
          (Fmt.str
             "real-time: txn %d (resp=%d) serialized after a txn invoked at %d"
             id x.W.resp !max_inv);
    if x.W.inv > !max_inv then max_inv := x.W.inv;
    incr i
  done;
  !r

let finish_scans t =
  match t.mode with
  | `Sequential -> Ok ()
  | `Rss -> (
    match scan_rt_mutators t with Error _ as e -> e | Ok () -> scan_rt_conflicts t)
  | `Strict -> scan_rt_all t

(* {2 Ambiguous-suffix fallback}

   When the claimed order diverges so far from arrival order that the
   incremental structure blew its work budget, the verified prefix and the
   buffered suffix are recombined as (prefix claimed order) ++ (any legal
   suffix order found by the bounded search). The composition is sound to
   {e confirm} because record streams are response-ordered: every suffix
   transaction responded after every prefix response, so no real-time or
   session edge can point from the suffix back into the prefix, and a
   synthetic initial transaction seeds the search with the prefix's final
   store. A suffix the search rejects is reported [Unknown], not [Fail] —
   serializations interleaving suffix transactions amid the prefix were
   never explored. *)

(* The prefix's final store, in key-id (first-seen) order, so the
   fallback's input is a function of the [add] sequence alone. *)
let prefix_store t =
  let rec go k acc =
    if k < 0 then acc
    else
      let { name; writers; _ } = t.keys.(k) in
      let n = Ivec.length writers in
      go (k - 1)
        (if n = 0 then acc
         else (name, written_value t (Ivec.get writers (n - 1)) k) :: acc)
  in
  go (t.n_keys - 1) []

let fallback_model : W.mode -> Check_txn.model = function
  | `Strict -> Check_txn.Strict_serializable
  | `Rss -> Check_txn.Rss
  | `Sequential -> Check_txn.Process_ordered

let max_fallback_txns = 4096

let check_suffix t =
  let suffix = List.rev t.pending in
  if not t.arrival_monotone then
    Unknown
      "work budget exhausted and arrival order is not response-ordered; the \
       suffix cannot be soundly recombined"
  else if t.n_pending > max_fallback_txns then
    Unknown
      (Fmt.str
         "work budget exhausted with %d transactions still unchecked (suffix \
          search capped at %d)"
         t.n_pending max_fallback_txns)
  else begin
    let store = prefix_store t in
    let min_inv =
      List.fold_left (fun acc (x : W.txn) -> min acc x.W.inv) max_int suffix
    in
    let init =
      if store = [] then []
      else
        [
          Txn_history.rw ~id:0 ~proc:(-1) ~writes:store ~inv:(min_inv - 2)
            ~resp:(min_inv - 1) ();
        ]
    in
    let base = List.length init in
    let txns =
      init
      @ List.mapi (fun j x -> Txn_history.of_witness ~id:(base + j) x) suffix
    in
    match Txn_history.make txns with
    | exception Invalid_argument m ->
      Unknown (Fmt.str "suffix fallback: malformed suffix history (%s)" m)
    | h -> (
      match
        Check_txn.check ~max_states:t.fallback_states h (fallback_model t.mode)
      with
      | Check_txn.Sat _ -> Pass
      | Check_txn.Unsat ->
        Unknown
          "suffix fallback: no serialization appending the suffix after the \
           prefix exists (interleavings unexplored)"
      | Check_txn.Unknown -> Unknown "suffix fallback: search budget exhausted"
      | exception Invalid_argument m ->
        Unknown (Fmt.str "suffix fallback: search rejected the suffix (%s)" m))
  end

let result t =
  match t.state with
  | Failed m -> Fail m
  | Checking -> (
    match settle_deferred t with
    | `Fail m | `Missing m -> Fail m
    | `Ok -> (
      match finish_scans t with Ok () -> Pass | Error m -> Fail m))
  | Overflowed -> (
    (* The inserted prefix is still held to the exact scans; only the
       buffered suffix needs the bounded search. *)
    match settle_deferred t with
    | `Fail m -> Fail m
    | `Missing m ->
      Unknown (m ^ " (its writer may be in the unchecked suffix)")
    | `Ok -> (
      match finish_scans t with Error m -> Fail m | Ok () -> check_suffix t))

let check ?work_budget ?fallback_states ~mode txns =
  let t = create ?work_budget ?fallback_states ~mode () in
  Array.iter (fun x -> add t x) txns;
  result t
