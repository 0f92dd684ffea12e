type prepared = {
  p_txn : int;
  p_tp : int;
  mutable p_tee : int;
  p_writes : (int * int) list;
  mutable p_waiters : (Types.outcome -> unit) list;
  p_coord : int;
  p_participants : int list;
}

(* Migration fence: while set, the protocol layer refuses new lock
   acquisitions on keys in [f_lo, f_hi) so the range can drain. Volatile by
   design — a rebuilt leader forgets it, and the migration driver detects
   the loss via its pre-commit fence re-check. *)
type fence = { f_lo : int; f_hi : int; f_since : int }

(* The prepared table and, per key, how many of its entries write that key
   here. The counts let [conflicting_prepared] answer the common "nobody
   writes these keys" case without scanning [by_txn]. Only this module
   mutates either table, so they cannot drift apart. [by_txn] stays a
   stdlib table because its fold order feeds in-doubt resolution (see the
   .mli). *)
type prepared_set = {
  by_txn : (int, prepared) Hashtbl.t;
  writers : int Sim.Int_table.t;
}

type t = {
  shard_id : int;
  mutable leader_site : int;
  engine : Sim.Engine.t;
  tt : Sim.Truetime.t;
  txns : Types.table;
  station : Sim.Station.t;
  repl : Types.repl_entry Replication.Group.t;
  mutable locks : Locks.t;
  store : Types.version list Sim.Int_table.t;
  prepared_set : prepared_set;
  decided_tbl : (Types.outcome * int) Sim.Int_table.t;  (* outcome, max_tee *)
  in_doubt : unit Sim.Int_table.t;  (* status queries in flight *)
  mutable max_write_ts : int;
  mutable fence : fence option;
  mutable n_ro_served : int;
  mutable n_ro_blocked : int;
  mutable n_prepared_scans : int;
  mutable n_rebuilds : int;
  wound_prepared_hook : (int -> unit) ref;
}

(* The lock table closes over the prepared table and wound hook, so a
   rebuild can install a fresh one (volatile lock state dies with the old
   leader) without re-wiring the shard. *)
let make_locks engine txns prepared_set wound_prepared_hook =
  Locks.create engine
    ~is_prepared:(fun txn -> Hashtbl.mem prepared_set.by_txn txn)
    ~is_wounded:(fun txn -> Types.is_wounded txns txn)
    ~wound:(fun txn -> Types.wound txns txn)
    ~wound_prepared:(fun txn -> !wound_prepared_hook txn)

let create engine net tt txns (config : Config.t) ~shard_id =
  let station =
    Sim.Station.create engine ~service_time_us:config.Config.service_time_us
  in
  let station_opt = if config.Config.service_time_us > 0 then Some station else None in
  let repl =
    Replication.Group.create net ?station:station_opt
      ~leader_site:config.Config.leader_site.(shard_id)
      ~replica_sites:config.Config.replica_sites.(shard_id)
      ()
  in
  let prepared_set = { by_txn = Hashtbl.create 64; writers = Sim.Int_table.create () } in
  let wound_prepared_hook = ref (fun (_ : int) -> ()) in
  let locks = make_locks engine txns prepared_set wound_prepared_hook in
  {
    shard_id;
    leader_site = config.Config.leader_site.(shard_id);
    engine;
    tt;
    txns;
    station;
    repl;
    locks;
    store = Sim.Int_table.create ();
    prepared_set;
    decided_tbl = Sim.Int_table.create ();
    in_doubt = Sim.Int_table.create ();
    max_write_ts = 0;
    fence = None;
    n_ro_served = 0;
    n_ro_blocked = 0;
    n_prepared_scans = 0;
    n_rebuilds = 0;
    wound_prepared_hook;
  }

let read_version_at t ~key ~ts =
  match Sim.Int_table.find t.store key with
  | exception Not_found -> None
  | versions -> List.find_opt (fun (v : Types.version) -> v.Types.ts <= ts) versions

(* Raises [Invalid_argument] if [ts] does not exceed the key's newest
   version (the per-key monotonicity invariant). *)
let apply_write t ~key ~ts ~writer ~value =
  let versions = try Sim.Int_table.find t.store key with Not_found -> [] in
  (match versions with
  | { Types.ts = newest; writer = prev; _ } :: _ when newest >= ts ->
    invalid_arg
      (Fmt.str
         "Shard.apply_write: non-monotonic commit ts %d (txn %d) after %d (txn %d) on key %d"
         ts writer newest prev key)
  | _ -> ());
  Sim.Int_table.replace t.store key ({ Types.ts; writer; value } :: versions)

let advance_max_write_ts t ts = if ts > t.max_write_ts then t.max_write_ts <- ts

let choose_prepare_ts t =
  let tp = t.max_write_ts + 1 in
  t.max_write_ts <- tp;
  tp

let count_writes ps p delta =
  List.iter
    (fun (key, _) ->
      let n = delta + (try Sim.Int_table.find ps.writers key with Not_found -> 0) in
      if n = 0 then Sim.Int_table.remove ps.writers key
      else Sim.Int_table.replace ps.writers key n)
    p.p_writes

let remove_prepared ps txn =
  match Hashtbl.find_opt ps.by_txn txn with
  | None -> None
  | Some p ->
    Hashtbl.remove ps.by_txn txn;
    count_writes ps p (-1);
    Some p

(* Replacing in place, not remove-then-add, keeps the entry's place in the
   fold order. *)
let add_prepared t p =
  let ps = t.prepared_set in
  (match Hashtbl.find_opt ps.by_txn p.p_txn with
  | Some old -> count_writes ps old (-1)
  | None -> ());
  Hashtbl.replace ps.by_txn p.p_txn p;
  count_writes ps p 1

let prepared t txn = Hashtbl.find_opt t.prepared_set.by_txn txn

let fold_prepared t f init = Hashtbl.fold (fun _ p acc -> f p acc) t.prepared_set.by_txn init

let prepared_txns t = List.sort compare (fold_prepared t (fun p acc -> p.p_txn :: acc) [])

(* The index only skips the fold when it would return []; see the .mli for
   why the fold's order must not change. *)
let conflicting_prepared t ~keys ~max_tp =
  if not (List.exists (fun k -> Sim.Int_table.mem t.prepared_set.writers k) keys) then []
  else begin
    t.n_prepared_scans <- t.n_prepared_scans + 1;
    fold_prepared t
      (fun p acc ->
        if p.p_tp <= max_tp && List.exists (fun (k, _) -> List.mem k keys) p.p_writes
        then p :: acc
        else acc)
      []
  end

let wait_prepared _t p k = p.p_waiters <- k :: p.p_waiters

let resolve_prepared t ~txn outcome =
  match remove_prepared t.prepared_set txn with
  | None -> ()
  | Some p ->
    (match outcome with
    | Types.Committed tc ->
      List.iter (fun (key, value) -> apply_write t ~key ~ts:tc ~writer:txn ~value) p.p_writes;
      advance_max_write_ts t tc
    | Types.Aborted -> ());
    let waiters = p.p_waiters in
    p.p_waiters <- [];
    List.iter (fun k -> k outcome) waiters

(* ------------------------------------------------------------------ *)
(* Placement: fence / snapshot / install                              *)
(* ------------------------------------------------------------------ *)

let set_fence t ~lo ~hi =
  t.fence <- Some { f_lo = lo; f_hi = hi; f_since = Sim.Engine.now t.engine }

let clear_fence t = t.fence <- None

let fenced t key =
  match t.fence with None -> false | Some f -> key >= f.f_lo && key < f.f_hi

let prepared_in_range t ~lo ~hi =
  fold_prepared t
    (fun p acc -> acc || List.exists (fun (k, _) -> k >= lo && k < hi) p.p_writes)
    false

(* The fold's order is free: what it collects is sorted. *)
let snapshot_range t ~lo ~hi ~owned =
  Sim.Int_table.fold
    (fun key versions acc ->
      if key >= lo && key < hi && owned key then (key, versions) :: acc else acc)
    t.store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Merge shipped versions into the store by timestamp (both lists are
   newest-first). Bypasses [apply_write]'s monotonicity check on purpose:
   installation back-fills history below t_m, and a retried ship may
   deliver the same versions twice — the merge makes that a no-op. *)
let install_versions t entries =
  let rec merge a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (x : Types.version) :: xs, y :: ys ->
      if x.Types.ts > y.Types.ts then x :: merge xs (y :: ys)
      else if x.Types.ts < y.Types.ts then y :: merge (x :: xs) ys
      else x :: merge xs ys
  in
  List.iter
    (fun (key, versions) ->
      let existing = try Sim.Int_table.find t.store key with Not_found -> [] in
      Sim.Int_table.replace t.store key (merge existing versions))
    entries;
  List.length entries

let decided t txn = Sim.Int_table.find_opt t.decided_tbl txn

let set_decided t ~txn outcome ~max_tee =
  Sim.Int_table.replace t.decided_tbl txn (outcome, max_tee)

(* New leader: replace every volatile structure with what the replicated
   log supports. Prepares with a logged outcome resolve; the rest are the
   in-doubt set the protocol layer must settle with their coordinators.
   Write locks of surviving prepares are restored (they are exclusive by
   construction), wounded or not: a prepared txn can still commit, so a
   read at the new leader must wait for its outcome rather than read the
   version before its write. Read locks and lock waiters die with the old
   leader — coordinators void any attempt whose read or vote views no
   longer match at decision time, covering the reads those locks protected
   from the moment they were served. *)
let rebuild t ~entries =
  t.n_rebuilds <- t.n_rebuilds + 1;
  Hashtbl.reset t.prepared_set.by_txn;
  Sim.Int_table.reset t.prepared_set.writers;
  Sim.Int_table.reset t.store;
  Sim.Int_table.reset t.decided_tbl;
  Sim.Int_table.reset t.in_doubt;
  t.max_write_ts <- 0;
  t.fence <- None;
  t.locks <- make_locks t.engine t.txns t.prepared_set t.wound_prepared_hook;
  List.iter
    (function
      | Types.Rprepare r ->
        if not (Sim.Int_table.mem t.decided_tbl r.r_txn) then
          add_prepared t
            {
              p_txn = r.r_txn;
              p_tp = r.r_tp;
              p_tee = r.r_tee;
              p_writes = r.r_writes;
              p_waiters = [];
              p_coord = r.r_coord;
              p_participants = r.r_participants;
            };
        advance_max_write_ts t r.r_tp
      | Types.Routcome r ->
        if not (Sim.Int_table.mem t.decided_tbl r.r_txn) then begin
          Sim.Int_table.replace t.decided_tbl r.r_txn (r.r_out, r.r_max_tee);
          ignore (remove_prepared t.prepared_set r.r_txn);
          match r.r_out with
          | Types.Committed tc ->
            List.iter
              (fun (key, value) -> apply_write t ~key ~ts:tc ~writer:r.r_txn ~value)
              r.r_writes;
            advance_max_write_ts t tc
          | Types.Aborted -> ()
        end
      | Types.Rmigrate_out m -> advance_max_write_ts t m.m_tm
      | Types.Rmigrate_in m ->
        ignore (install_versions t m.m_versions);
        advance_max_write_ts t m.m_tm)
    entries;
  List.iter
    (fun txn ->
      let p = Hashtbl.find t.prepared_set.by_txn txn in
      let priority = (Types.find t.txns txn).Types.priority in
      List.iter (fun (key, _) -> Locks.restore_write t.locks ~key ~txn ~priority)
        p.p_writes)
    (prepared_txns t)
