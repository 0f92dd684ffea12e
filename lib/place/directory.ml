(* Epoch-versioned placement directory: the authoritative key -> shard map
   plus client-side cached views.

   Ownership is a base map (the static layout the cluster booted with,
   epoch 0) overlaid with a newest-first list of range assignments, one per
   committed migration. Epochs are monotone: every commit bumps the epoch
   by exactly one and appends the assignment to a durable log, so a
   recovering directory replica can rebuild the overlay by replaying the
   log in order.

   Lookups are pure: they draw no randomness, schedule no events and read
   no clocks, so wiring the directory into a protocol's dispatch path
   leaves seeded schedules byte-identical as long as no migration commits. *)

type assignment = {
  a_epoch : int;  (* epoch this assignment created *)
  a_lo : int;  (* inclusive *)
  a_hi : int;  (* exclusive *)
  a_owner : int;  (* new owning shard *)
  a_tm : int;  (* migration timestamp: writes below stayed at the source *)
}

type t = {
  n_shards : int;
  base : int -> int;
  mutable epoch : int;
  mutable overrides : assignment list;  (* newest first *)
  store : Sim.Durable.t;
  log : assignment Sim.Durable.log;
  mutable n_repairs : int;  (* assignments re-persisted by [recover] *)
}

(* Verified recovery of the durable assignment log.

   The running overlay is the replicated state machine (conceptually backed
   by a quorum of directory replicas); the log is this replica's durable
   copy. [recover] classifies storage damage with [read_verified] and heals
   the log from the overlay — truncate the torn or resurfaced suffix, then
   re-append the assignments the journal lost. Mid-log corruption needs
   that peer copy: with [peer:false] (no quorum reachable) the directory
   fail-stops with a diagnostic instead of replaying garbage. *)
let recover ?(peer = true) t =
  let heal_from verified_len =
    Sim.Durable.truncate t.log (min verified_len (Sim.Durable.length t.log));
    Sim.Durable.repair_torn_tail t.log;
    let missing =
      List.filteri (fun i _ -> i >= verified_len) (List.rev t.overrides)
    in
    List.iter (fun a -> ignore (Sim.Durable.append t.log ~bytes:40 a)) missing;
    let k = List.length missing in
    t.n_repairs <- t.n_repairs + k;
    k
  in
  match Sim.Durable.read_verified t.log with
  | Sim.Durable.Ok -> `Ok
  | Sim.Durable.Torn_tail n -> `Repaired (heal_from n)
  | Sim.Durable.Corrupt i ->
    if i >= Sim.Durable.journalled_length t.log || peer then
      (* Resurfaced junk past the journal, or a peer copy (the overlay)
         vouches for the prefix: drop the suspect suffix and re-persist. *)
      `Repaired (heal_from i)
    else
      `Failstop
        (Fmt.str
           "place.directory: log corrupt at index %d (journalled %d) and no \
            peer holds the assignments — refusing to replay"
           i
           (Sim.Durable.journalled_length t.log))

let create ?base ~n_shards () =
  if n_shards <= 0 then invalid_arg "Directory.create: n_shards must be positive";
  let base = match base with Some f -> f | None -> fun key -> key mod n_shards in
  let store = Sim.Durable.create ~site:0 ~name:"place.directory" in
  let t =
    {
      n_shards;
      base;
      epoch = 0;
      overrides = [];
      store;
      log = Sim.Durable.log store;
      n_repairs = 0;
    }
  in
  (* A background scrub that flags this log repairs it the same way
     recovery would. *)
  Sim.Durable.set_repairer t.log (fun _ -> ignore (recover t));
  t

let repairs t = t.n_repairs

let n_shards t = t.n_shards
let epoch t = t.epoch

let owner_in ~base ~n_shards overrides key =
  let rec find = function
    | [] ->
      let o = base key in
      if o < 0 || o >= n_shards then
        Fmt.invalid_arg "Directory: base map sent key %d to shard %d (of %d)" key o
          n_shards;
      o
    | a :: rest -> if key >= a.a_lo && key < a.a_hi then a.a_owner else find rest
  in
  find overrides

let owner t key = owner_in ~base:t.base ~n_shards:t.n_shards t.overrides key

let commit t ~lo ~hi ~owner ~tm =
  if hi <= lo then invalid_arg "Directory.commit: empty range";
  if owner < 0 || owner >= t.n_shards then
    invalid_arg "Directory.commit: owner out of range";
  t.epoch <- t.epoch + 1;
  let a = { a_epoch = t.epoch; a_lo = lo; a_hi = hi; a_owner = owner; a_tm = tm } in
  t.overrides <- a :: t.overrides;
  ignore (Sim.Durable.append t.log ~bytes:40 a);
  t.epoch

let assignments t = List.rev t.overrides
let log_entries t = Sim.Durable.to_list t.log
let durable_appends t = Sim.Durable.appends t.store
let durable_bytes t = Sim.Durable.bytes_written t.store

(* ------------------------------------------------------------------ *)
(* Client-side cached views                                           *)
(* ------------------------------------------------------------------ *)

type view = {
  v_dir : t;
  mutable v_epoch : int;
  mutable v_overrides : assignment list;
  mutable v_refreshes : int;
}

let view t = { v_dir = t; v_epoch = t.epoch; v_overrides = t.overrides; v_refreshes = 0 }

let view_epoch v = v.v_epoch
let view_refreshes v = v.v_refreshes
let stale v = v.v_epoch <> v.v_dir.epoch

let refresh v =
  if stale v then begin
    v.v_epoch <- v.v_dir.epoch;
    v.v_overrides <- v.v_dir.overrides;
    v.v_refreshes <- v.v_refreshes + 1
  end

let view_owner v key =
  owner_in ~base:v.v_dir.base ~n_shards:v.v_dir.n_shards v.v_overrides key
