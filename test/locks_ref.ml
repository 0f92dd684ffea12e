type grant = Granted of { blocked_us : int } | Aborted

type kind = Read | Write

type request = {
  txn : int;
  kind : kind;
  priority : int * int;
  enqueued_at : int;
  k : grant -> unit;
}

type entry = {
  mutable readers : int list;
  mutable writer : int option;
  mutable queue : request list;  (* FIFO: head = oldest *)
}

type t = {
  engine : Sim.Engine.t;
  table : entry Sim.Int_table.t;
  held : (int * kind) list Sim.Int_table.t;  (* txn -> locks *)
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
     re-entrancy. A stdlib table: [pick]'s fold order decides which dirty
     key is scanned next, so it reaches the schedule. *)
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
    let e = { readers = []; writer = None; queue = [] } in
    Sim.Int_table.replace t.table key e;
    e

let holds_read t ~key ~txn =
  match Sim.Int_table.find t.table key with
  | e -> List.mem txn e.readers || e.writer = Some txn
  | exception Not_found -> false

let holds_write t ~key ~txn =
  match Sim.Int_table.find t.table key with
  | e -> e.writer = Some txn
  | exception Not_found -> false

let wounds_inflicted t = t.wounds

(* Any holder or queued waiter on a key in [lo, hi)? Used by the placement
   drain: a fenced range is quiescent only once every read/write lock in it
   has been released (commit wait then bounds the holders' commit
   timestamps below the migration timestamp) and no request is parked
   waiting to become a holder. The fold only ORs, so its order is free. *)
let any_busy_in t ~lo ~hi =
  Sim.Int_table.fold
    (fun key e acc ->
      acc
      || (key >= lo && key < hi
          && (e.readers <> [] || e.writer <> None || e.queue <> [])))
    t.table false

let priority_of t txn =
  try Sim.Int_table.find t.priorities txn with Not_found -> (max_int, txn)

let record_held t txn key kind =
  let prev = try Sim.Int_table.find t.held txn with Not_found -> [] in
  Sim.Int_table.replace t.held txn ((key, kind) :: prev)

(* Remove [txn]'s locks and queued requests; returns affected keys and the
   continuations of its aborted queued requests. Only the keys the txn
   touched are visited (the [held] and [queued] indexes) — scanning the
   whole table would make releases O(keyspace). *)
let strip t txn =
  let affected = ref [] in
  let aborted_ks = ref [] in
  (match Sim.Int_table.find t.held txn with
  | exception Not_found -> ()
  | locks ->
    List.iter
      (fun (key, _) ->
        let e = entry t key in
        if List.mem txn e.readers then e.readers <- List.filter (( <> ) txn) e.readers;
        if e.writer = Some txn then e.writer <- None;
        affected := key :: !affected)
      locks;
    Sim.Int_table.remove t.held txn);
  (match Sim.Int_table.find t.queued txn with
  | exception Not_found -> ()
  | keys ->
    List.iter
      (fun key ->
        let e = entry t key in
        if List.exists (fun r -> r.txn = txn) e.queue then begin
          List.iter
            (fun r -> if r.txn = txn then aborted_ks := r.k :: !aborted_ks)
            e.queue;
          e.queue <- List.filter (fun r -> r.txn <> txn) e.queue;
          affected := key :: !affected
        end)
      (List.sort_uniq compare keys);
    Sim.Int_table.remove t.queued txn);
  (List.sort_uniq compare !affected, !aborted_ks)

(* Conflicting holders for a request, excluding the requester itself. *)
let conflicting_holders e req =
  match req.kind with
  | Read -> ( match e.writer with Some w when w <> req.txn -> [ w ] | _ -> [])
  | Write ->
    let ws = match e.writer with Some w when w <> req.txn -> [ w ] | _ -> [] in
    ws @ List.filter (( <> ) req.txn) e.readers

(* A read must also wait behind an older queued writer (writer anti-starvation). *)
let older_queued_writer e req =
  req.kind = Read
  && List.exists
       (fun r -> r.kind = Write && r.txn <> req.txn && r.priority < req.priority)
       e.queue

let mark_dirty t key =
  Hashtbl.replace t.dirty key ();
  t.last_dirty <- key

(* Evaluate one request: wound what can be wounded, report whether the
   request is now grantable and whether any state changed. Wounding a victim
   marks every key it blocked dirty (including this one — the owning drain
   loop re-scans it). *)
let rec try_acquire t key req =
  let e = entry t key in
  let holders = conflicting_holders e req in
  let blocked = ref false in
  let wounded_any = ref false in
  List.iter
    (fun h ->
      if t.is_prepared h then begin
        (* Cannot abort a prepared holder unilaterally: escalate to its 2PC
           coordinator if we outrank it, and wait either way. *)
        if req.priority < priority_of t h then t.wound_prepared h;
        blocked := true
      end
      else if req.priority <= priority_of t h then begin
        (* Priorities are (first-issue time, unique tiebreak) and retries
           keep the first attempt's, so an equal-priority holder is an
           earlier attempt of the same logical transaction — already
           aborted, its lock leaked by a lost release. Wound it too, or the
           retry waits on itself forever. *)
        t.wounds <- t.wounds + 1;
        t.wound h;
        let affected, aborted = strip t h in
        List.iter
          (fun k -> Sim.Engine.schedule t.engine ~after:0 (fun () -> k Aborted))
          aborted;
        wounded_any := true;
        List.iter (mark_dirty t) affected
      end
      else blocked := true)
    holders;
  let grantable = (not !blocked) && not (older_queued_writer e req) in
  (grantable, !wounded_any)

and grant t key req =
  let e = entry t key in
  (match req.kind with
  | Read -> if not (List.mem req.txn e.readers) then e.readers <- req.txn :: e.readers
  | Write -> e.writer <- Some req.txn);
  record_held t req.txn key req.kind;
  let blocked_us = Sim.Engine.now t.engine - req.enqueued_at in
  Sim.Engine.schedule t.engine ~after:0 (fun () -> req.k (Granted { blocked_us }))

(* One scan of a key's queue in FIFO order: abort wounded waiters, grant
   every request compatible with the current holders, keep the rest. The
   queue is mutated in place (requests identified physically) so nested
   wound chains stay coherent. Marks the key dirty again when anything
   changed. Scanning past blocked requests lets a younger writer wait
   without stalling readers behind it — and conversely — which plain
   stop-at-head FIFO would deadlock on. *)
and scan_key t key =
  let e = entry t key in
  let progressed = ref false in
  List.iter
    (fun req ->
      if List.memq req e.queue then
        if t.is_wounded req.txn then begin
          e.queue <- List.filter (fun r -> r != req) e.queue;
          Sim.Engine.schedule t.engine ~after:0 (fun () -> req.k Aborted);
          progressed := true
        end
        else begin
          let grantable, wounded = try_acquire t key req in
          if wounded then progressed := true;
          if grantable then begin
            e.queue <- List.filter (fun r -> r != req) e.queue;
            grant t key req;
            progressed := true
          end
        end)
    e.queue;
  if !progressed then mark_dirty t key

(* Mark a key for processing and, unless a drain loop already owns the
   table, drain until no key is dirty. *)
and process_queue t key =
  mark_dirty t key;
  if not t.draining then begin
    t.draining <- true;
    (* The fold visits every bucket. With no dirty key it can only
       return [None], and with one it can only return that key, which is
       usually the last one marked; the fold is left to pick among two or
       more. *)
    let pick () =
      match Hashtbl.length t.dirty with
      | 0 -> None
      | 1 when Hashtbl.mem t.dirty t.last_dirty -> Some t.last_dirty
      | _ -> Hashtbl.fold (fun k () _ -> Some k) t.dirty None
    in
    let rec drain () =
      match pick () with
      | None -> t.draining <- false
      | Some k ->
        Hashtbl.remove t.dirty k;
        scan_key t k;
        drain ()
    in
    drain ()
  end

let acquire t kind ~key ~txn ~priority k =
  Sim.Int_table.replace t.priorities txn priority;
  if t.is_wounded txn then Sim.Engine.schedule t.engine ~after:0 (fun () -> k Aborted)
  else begin
    let req = { txn; kind; priority; enqueued_at = Sim.Engine.now t.engine; k } in
    let e = entry t key in
    e.queue <- e.queue @ [ req ];
    let prev = try Sim.Int_table.find t.queued txn with Not_found -> [] in
    Sim.Int_table.replace t.queued txn (key :: prev);
    process_queue t key
  end

let acquire_read t ~key ~txn ~priority k = acquire t Read ~key ~txn ~priority k

let acquire_write t ~key ~txn ~priority k = acquire t Write ~key ~txn ~priority k

let restore_write t ~key ~txn ~priority =
  Sim.Int_table.replace t.priorities txn priority;
  (entry t key).writer <- Some txn;
  record_held t txn key Write

let release_all t ~txn =
  let affected, aborted = strip t txn in
  Sim.Int_table.remove t.priorities txn;
  List.iter (fun k -> Sim.Engine.schedule t.engine ~after:0 (fun () -> k Aborted)) aborted;
  List.iter (fun key -> process_queue t key) affected
