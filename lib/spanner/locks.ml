type grant = Granted of { blocked_us : int } | Aborted

type kind = Read | Write

type request = {
  txn : int;
  kind : kind;
  priority : int * int;
  enqueued_at : int;
  k : grant -> unit;
}

(* [writer] is [no_writer] when the key has no write holder. *)
type entry = {
  mutable readers : int list;
  mutable writer : int;
  mutable queue : request list;  (* FIFO: head = oldest *)
}

let no_writer = min_int

type t = {
  engine : Sim.Engine.t;
  table : entry Sim.Int_table.t;  (* live entries only: see [retire] *)
  held : int list Sim.Int_table.t;  (* txn -> keys it holds, ascending *)
  queued : int list Sim.Int_table.t;  (* txn -> keys with queued requests *)
  priorities : (int * int) Sim.Int_table.t;
  is_prepared : int -> bool;
  is_wounded : int -> bool;
  wound : int -> unit;
  wound_prepared : int -> unit;
  mutable wounds : int;
  (* Wakeup machinery: keys whose queues need re-examination. A single
     drain loop owns queue processing; nested calls (wound chains inside
     try_acquire) only mark keys dirty, so no wakeup can be lost to
     re-entrancy. A stdlib table: [drain]'s fold order decides which dirty
     key is scanned next, so it reaches the schedule. Outside a drain it is
     empty. *)
  dirty : (int, unit) Hashtbl.t;
  mutable last_dirty : int;  (* the key most recently marked dirty *)
  mutable draining : bool;
}

let create engine ~is_prepared ~is_wounded ~wound ~wound_prepared =
  {
    engine;
    table = Sim.Int_table.create ();
    held = Sim.Int_table.create ();
    queued = Sim.Int_table.create ();
    priorities = Sim.Int_table.create ();
    is_prepared;
    is_wounded;
    wound;
    wound_prepared;
    wounds = 0;
    dirty = Hashtbl.create 64;
    last_dirty = 0;
    draining = false;
  }

let entry t key =
  match Sim.Int_table.find t.table key with
  | e -> e
  | exception Not_found ->
    let e = { readers = []; writer = no_writer; queue = [] } in
    Sim.Int_table.replace t.table key e;
    e

let idle e = e.writer = no_writer && e.readers = [] && e.queue = []

(* An entry with no holder and no waiter leaves the table; [entry] makes a
   fresh one when the key is locked again. Removal from an [Int_table] is
   order-free, and only [scan_key] (at the top of a drain) and
   [release_all] outside a drain call this, so no caller still holds the
   entry. *)
let retire t key e = if idle e then Sim.Int_table.remove t.table key

let live_entries t = Sim.Int_table.length t.table

let holds_read t ~key ~txn =
  match Sim.Int_table.find t.table key with
  | e -> List.mem txn e.readers || e.writer = txn
  | exception Not_found -> false

let holds_write t ~key ~txn =
  match Sim.Int_table.find t.table key with
  | e -> e.writer = txn
  | exception Not_found -> false

let wounds_inflicted t = t.wounds

(* Any holder or queued waiter on a key in [lo, hi)? Used by the placement
   drain: a fenced range is quiescent only once every read/write lock in it
   has been released (commit wait then bounds the holders' commit
   timestamps below the migration timestamp) and no request is parked
   waiting to become a holder. The fold only ORs, so its order is free. *)
let any_busy_in t ~lo ~hi =
  Sim.Int_table.fold
    (fun key e acc -> acc || (key >= lo && key < hi && not (idle e)))
    t.table false

let priority_of t txn =
  try Sim.Int_table.find t.priorities txn with Not_found -> (max_int, txn)

(* The lexicographic order on (first-issue time, tiebreak) priorities. *)
let older (a1, a2) (b1, b2) = a1 < b1 || (a1 = b1 && a2 < b2)

let no_younger (a1, a2) (b1, b2) = a1 < b1 || (a1 = b1 && a2 <= b2)

let rec insert_key key = function
  | k :: rest as l -> if key < k then key :: l else k :: insert_key key rest
  | [] -> [ key ]

let record_held t txn key =
  let prev = try Sim.Int_table.find t.held txn with Not_found -> [] in
  if not (List.mem key prev) then Sim.Int_table.replace t.held txn (insert_key key prev)

(* [l] without [x]; the tail after [x] is shared. *)
let rec remove_int x = function
  | y :: rest -> if y = x then rest else y :: remove_int x rest
  | [] -> []

let rec remove_req req = function
  | r :: rest -> if r == req then rest else r :: remove_req req rest
  | [] -> []

let rec has_request_of txn = function
  | r :: rest -> r.txn = txn || has_request_of txn rest
  | [] -> false

let rec without_requests_of txn = function
  | r :: rest ->
    if r.txn = txn then without_requests_of txn rest
    else r :: without_requests_of txn rest
  | [] -> []

(* Prepends the continuations of [txn]'s requests, so the last one in the
   queue comes first. *)
let rec continuations_of txn acc = function
  | r :: rest -> continuations_of txn (if r.txn = txn then r.k :: acc else acc) rest
  | [] -> acc

(* A held key's entry can be gone: {!restore_write} may take a key over
   from a holder that still lists it, and the entry retires once the new
   holder is done. *)
let rec unhold t txn = function
  | key :: rest ->
    (match Sim.Int_table.find t.table key with
    | exception Not_found -> ()
    | e ->
      if List.mem txn e.readers then e.readers <- remove_int txn e.readers;
      if e.writer = txn then e.writer <- no_writer);
    unhold t txn rest
  | [] -> ()

(* The queued keys, ascending, whose queue holds a request of [txn]; their
   continuations are prepended to [aborted] key by key. *)
let rec unqueue t txn keys ~affected ~aborted =
  match keys with
  | [] -> (affected, aborted)
  | key :: rest -> (
    match Sim.Int_table.find t.table key with
    | e when has_request_of txn e.queue ->
      let aborted = continuations_of txn aborted e.queue in
      e.queue <- without_requests_of txn e.queue;
      unqueue t txn rest ~affected:(key :: affected) ~aborted
    | _ | (exception Not_found) -> unqueue t txn rest ~affected ~aborted)

let rec abort_all t = function
  | k :: rest ->
    Sim.Engine.schedule t.engine ~after:0 (fun () -> k Aborted);
    abort_all t rest
  | [] -> ()

(* Remove [txn]'s locks and queued requests, schedule the aborts of its
   queued requests, and return the affected keys in ascending order. Only
   the keys the txn touched are visited (the [held] and [queued] indexes) —
   scanning the whole table would make releases O(keyspace). *)
let strip t txn =
  let held =
    match Sim.Int_table.find t.held txn with
    | exception Not_found -> []
    | keys ->
      unhold t txn keys;
      Sim.Int_table.remove t.held txn;
      keys
  in
  match Sim.Int_table.find t.queued txn with
  | exception Not_found -> held
  | keys ->
    Sim.Int_table.remove t.queued txn;
    let affected, aborted =
      unqueue t txn (List.sort_uniq Int.compare keys) ~affected:[] ~aborted:[]
    in
    abort_all t aborted;
    if affected = [] then held else List.sort_uniq Int.compare (List.rev_append affected held)

let rec only txn = function r :: rest -> r = txn && only txn rest | [] -> true

(* No holder but [txn] itself stands in the way of [kind]. *)
let no_conflict e kind txn =
  (e.writer = no_writer || e.writer = txn)
  && match kind with Read -> true | Write -> only txn e.readers

(* A read must also wait behind an older queued writer (writer anti-starvation). *)
let rec older_queued_writer req = function
  | r :: rest ->
    (r.kind = Write && r.txn <> req.txn && older r.priority req.priority)
    || older_queued_writer req rest
  | [] -> false

let mark_dirty t key =
  Hashtbl.replace t.dirty key ();
  t.last_dirty <- key

let rec mark_all_dirty t = function
  | key :: rest ->
    mark_dirty t key;
    mark_all_dirty t rest
  | [] -> ()

(* [try_acquire]'s result bits. *)
let blocked = 1

let wounded = 2

(* Confront one conflicting holder [h]: wound it if it can be wounded,
   otherwise record that the request is blocked. Wounding a victim marks
   every key it blocked dirty (including this one — the owning drain loop
   re-scans it). *)
let confront t req h flags =
  if h = req.txn then flags
  else if t.is_prepared h then begin
    (* Cannot abort a prepared holder unilaterally: escalate to its 2PC
       coordinator if we outrank it, and wait either way. *)
    if older req.priority (priority_of t h) then t.wound_prepared h;
    flags lor blocked
  end
  else if no_younger req.priority (priority_of t h) then begin
    (* Priorities are (first-issue time, unique tiebreak) and retries
       keep the first attempt's, so an equal-priority holder is an
       earlier attempt of the same logical transaction — already
       aborted, its lock leaked by a lost release. Wound it too, or the
       retry waits on itself forever. *)
    t.wounds <- t.wounds + 1;
    t.wound h;
    mark_all_dirty t (strip t h);
    flags lor wounded
  end
  else flags lor blocked

let rec confront_readers t req readers flags =
  match readers with
  | h :: rest -> confront_readers t req rest (confront t req h flags)
  | [] -> flags

(* Evaluate one request: wound what can be wounded (the writer first, then
   the readers as they stood before any wound), and report whether the
   request is still blocked and whether anything was wounded. *)
let try_acquire t e req =
  let readers = e.readers in
  let flags = if e.writer = no_writer then 0 else confront t req e.writer 0 in
  let flags =
    match req.kind with Read -> flags | Write -> confront_readers t req readers flags
  in
  if flags land blocked = 0 && req.kind = Read && older_queued_writer req e.queue
  then flags lor blocked
  else flags

let granted_now = Granted { blocked_us = 0 }

let hold t key e kind txn =
  (match kind with
  | Read -> if not (List.mem txn e.readers) then e.readers <- txn :: e.readers
  | Write -> e.writer <- txn);
  record_held t txn key

let grant t key e req =
  hold t key e req.kind req.txn;
  let blocked_us = Sim.Engine.now t.engine - req.enqueued_at in
  let g = if blocked_us = 0 then granted_now else Granted { blocked_us } in
  let k = req.k in
  Sim.Engine.schedule t.engine ~after:0 (fun () -> k g)

(* One scan of a key's queue in FIFO order: abort wounded waiters, grant
   every request compatible with the current holders, keep the rest. The
   queue is mutated in place (requests identified physically) so nested
   wound chains stay coherent. Scanning past blocked requests lets a
   younger writer wait without stalling readers behind it — and conversely
   — which plain stop-at-head FIFO would deadlock on. Returns whether
   anything changed. *)
let rec scan t key e progressed = function
  | [] -> progressed
  | req :: rest ->
    if not (List.memq req e.queue) then scan t key e progressed rest
    else if t.is_wounded req.txn then begin
      e.queue <- remove_req req e.queue;
      let k = req.k in
      Sim.Engine.schedule t.engine ~after:0 (fun () -> k Aborted);
      scan t key e true rest
    end
    else
      let flags = try_acquire t e req in
      if flags land blocked = 0 then begin
        e.queue <- remove_req req e.queue;
        grant t key e req;
        scan t key e true rest
      end
      else scan t key e (progressed || flags land wounded <> 0) rest

(* Scan a key; when anything changed, mark it dirty again, otherwise let an
   idle entry retire. *)
let scan_key t key =
  match Sim.Int_table.find t.table key with
  | exception Not_found -> ()
  | e -> if scan t key e false e.queue then mark_dirty t key else retire t key e

(* Scan dirty keys until none is left. The fold visits every bucket. With
   one dirty key it can only return that key, which is usually the last one
   marked; the fold is left to pick among two or more. *)
let rec drain t =
  match Hashtbl.length t.dirty with
  | 0 -> t.draining <- false
  | n ->
    let k =
      if n = 1 && Hashtbl.mem t.dirty t.last_dirty then t.last_dirty
      else Hashtbl.fold (fun k () _ -> k) t.dirty t.last_dirty
    in
    Hashtbl.remove t.dirty k;
    scan_key t k;
    drain t

(* Process one key's queue. Inside a drain, only mark it. Outside one the
   dirty table is empty, so marking the key and picking it again would
   leave the table as it was: scan it at once, then drain what the scan
   marked. *)
let process_queue t key =
  if t.draining then mark_dirty t key
  else begin
    t.draining <- true;
    scan_key t key;
    drain t
  end

let acquire t kind ~key ~txn ~priority k =
  Sim.Int_table.replace t.priorities txn priority;
  if t.is_wounded txn then Sim.Engine.schedule t.engine ~after:0 (fun () -> k Aborted)
  else begin
    let e = entry t key in
    if (not t.draining) && e.queue = [] && no_conflict e kind txn then begin
      (* Uncontended: queueing the request and draining would grant it at
         once, with nothing blocked and nothing wounded. *)
      hold t key e kind txn;
      Sim.Engine.schedule t.engine ~after:0 (fun () -> k granted_now)
    end
    else begin
      let req = { txn; kind; priority; enqueued_at = Sim.Engine.now t.engine; k } in
      e.queue <- e.queue @ [ req ];
      let prev = try Sim.Int_table.find t.queued txn with Not_found -> [] in
      Sim.Int_table.replace t.queued txn (key :: prev);
      process_queue t key
    end
  end

let acquire_read t ~key ~txn ~priority k = acquire t Read ~key ~txn ~priority k

let acquire_write t ~key ~txn ~priority k = acquire t Write ~key ~txn ~priority k

let restore_write t ~key ~txn ~priority =
  Sim.Int_table.replace t.priorities txn priority;
  (entry t key).writer <- txn;
  record_held t txn key

(* Outside a drain, a key whose queue is empty has nothing to scan: it only
   retires if it is idle. *)
let rec release_keys t = function
  | key :: rest ->
    (match Sim.Int_table.find t.table key with
    | exception Not_found -> ()
    | e -> if e.queue = [] then retire t key e else process_queue t key);
    release_keys t rest
  | [] -> ()

let release_all t ~txn =
  let affected = strip t txn in
  Sim.Int_table.remove t.priorities txn;
  if t.draining then mark_all_dirty t affected else release_keys t affected
