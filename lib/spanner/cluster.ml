type t = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  tt : Sim.Truetime.t;
  config : Config.t;
  txns : Types.table;
  pctx : Protocol.ctx;
  mutable next_proc : int;
  mutable next_value : int;
  mutable record_list : Rss_core.Witness.txn list;
  mutable n_records : int;
  mutable record_hook : Rss_core.Witness.txn -> unit;
}

let create engine ~rng (config : Config.t) =
  let net =
    Sim.Net.create engine ~rng:(Sim.Rng.split rng) ~rtt_ms:config.Config.rtt_ms
      ~jitter:config.Config.jitter ()
  in
  let tt = Sim.Truetime.create engine ~epsilon_us:config.Config.epsilon_us in
  let txns = Types.table_create () in
  let pctx = Protocol.make_ctx engine net tt txns config in
  {
    engine;
    net;
    tt;
    config;
    txns;
    pctx;
    next_proc = 0;
    next_value = 1_000_000_000;
    record_list = [];
    n_records = 0;
    record_hook = ignore;
  }

let engine t = t.engine

let config t = t.config

let ctx t = t.pctx

let net t = t.net

let truetime t = t.tt

let txn_outcome t id = (Types.find t.txns id).Types.outcome

let fresh_proc t =
  let p = t.next_proc in
  t.next_proc <- p + 1;
  p

let fresh_value t =
  let v = t.next_value in
  t.next_value <- v + 1;
  v

let record t r =
  t.record_list <- r :: t.record_list;
  t.n_records <- t.n_records + 1;
  t.record_hook r

let set_record_hook t f = t.record_hook <- f

let records t = Array.of_list (List.rev t.record_list)

let check_history t =
  let mode =
    match t.config.Config.mode with Config.Strict -> `Strict | Config.Rss -> `Rss
  in
  Rss_core.Witness.check ~mode (records t)

type stats = {
  rw_committed : int;
  rw_aborted_attempts : int;
  wounds : int;
  ro_count : int;
  ro_slow : int;
  ro_blocked_at_shards : int;
  messages : int;
}

let stats t =
  let ro_blocked =
    Array.fold_left
      (fun acc sh -> acc + sh.Shard.n_ro_blocked)
      0 t.pctx.Protocol.shards
  in
  {
    rw_committed = t.pctx.Protocol.n_rw_committed;
    rw_aborted_attempts = t.pctx.Protocol.n_rw_aborted_attempts;
    wounds = Types.wounds t.txns;
    ro_count = t.pctx.Protocol.n_ro;
    ro_slow = t.pctx.Protocol.n_ro_slow;
    ro_blocked_at_shards = ro_blocked;
    messages = Sim.Net.messages_sent t.net;
  }

let enable_failover t ~rng ?config ~until_us () =
  Protocol.enable_failover t.pctx ~rng ?config ~until_us ()

(* ------------------------------------------------------------------ *)
(* Overload & gray-failure controls                                   *)
(* ------------------------------------------------------------------ *)

let stations t = Protocol.stations t.pctx

let set_site_slowdown t ~site ~factor =
  Protocol.set_site_slowdown t.pctx ~site ~factor

let clear_slowdowns t = Protocol.clear_slowdowns t.pctx

type flow_stats = Sim.Flow.stats = {
  expired : int;
  shed : int;
  abandoned : int;
  hedges : int;
  hedge_wins : int;
}

let flow_stats t = Sim.Flow.stats t.pctx.Protocol.flow

(* ------------------------------------------------------------------ *)
(* Elastic placement                                                  *)
(* ------------------------------------------------------------------ *)

let directory t = t.pctx.Protocol.directory

let migrate ?no_fence t ~lo ~hi ~dst k =
  Protocol.migrate ?no_fence t.pctx ~lo ~hi ~dst k

type place_stats = {
  epoch : int;
  migrations : int;  (* completed *)
  migrations_failed : int;
  migration_retries : int;
  keys_moved : int;
  redirects : int;
  fence_blocked : int;
  fence_hold_us : int;
  max_fence_hold_us : int;
  directory_appends : int;
}

let place_stats t =
  let ps = t.pctx.Protocol.place_stats in
  {
    epoch = Place.Directory.epoch (directory t);
    migrations = ps.Place.Migrate.completed;
    migrations_failed = ps.Place.Migrate.failed;
    migration_retries = ps.Place.Migrate.source_retries;
    keys_moved = ps.Place.Migrate.keys_moved;
    redirects = t.pctx.Protocol.n_redirects;
    fence_blocked = t.pctx.Protocol.n_fence_blocked;
    fence_hold_us = ps.Place.Migrate.fence_hold_us;
    max_fence_hold_us = ps.Place.Migrate.max_fence_hold_us;
    directory_appends = Place.Directory.durable_appends (directory t);
  }

let set_tracer t tracer = Protocol.set_tracer t.pctx tracer

let tracer t = t.pctx.Protocol.tracer

type failover_stats = {
  view_changes : int;
  heartbeats : int;
  catchups : int;
  dup_acks : int;
  max_election_us : int;
  terminates : int;
  terminate_commits : int;
  in_doubt_resolved : int;
  rpc_retries : int;
  rpc_exhausted : int;
  durable_appends : int;
  durable_bytes : int;
  torn_repaired : int;
  corrupt_quarantined : int;
  peer_repairs : int;
  unrepaired : int;
}

let failover_stats t =
  let z =
    {
      view_changes = 0;
      heartbeats = 0;
      catchups = 0;
      dup_acks = 0;
      max_election_us = 0;
      terminates = t.pctx.Protocol.n_terminates;
      terminate_commits = t.pctx.Protocol.n_terminate_commits;
      in_doubt_resolved = t.pctx.Protocol.n_in_doubt_resolved;
      rpc_retries =
        (match t.pctx.Protocol.rpc with
        | Some r -> Sim.Rpc.retries r
        | None -> 0);
      rpc_exhausted =
        (match t.pctx.Protocol.rpc with
        | Some r -> Sim.Rpc.exhausted r
        | None -> 0);
      durable_appends = 0;
      durable_bytes = 0;
      torn_repaired = 0;
      corrupt_quarantined = 0;
      peer_repairs = 0;
      unrepaired = 0;
    }
  in
  Array.fold_left
    (fun acc sh ->
      let g = Replication.Group.stats sh.Shard.repl in
      {
        acc with
        view_changes = acc.view_changes + g.Replication.Group.view_changes;
        heartbeats = acc.heartbeats + g.Replication.Group.heartbeats;
        catchups = acc.catchups + g.Replication.Group.catchups;
        dup_acks = acc.dup_acks + g.Replication.Group.dup_acks;
        max_election_us =
          max acc.max_election_us g.Replication.Group.max_election_us;
        durable_appends = acc.durable_appends + g.Replication.Group.durable_appends;
        durable_bytes = acc.durable_bytes + g.Replication.Group.durable_bytes;
        torn_repaired = acc.torn_repaired + g.Replication.Group.torn_repaired;
        corrupt_quarantined =
          acc.corrupt_quarantined + g.Replication.Group.corrupt_quarantined;
        peer_repairs = acc.peer_repairs + g.Replication.Group.peer_repairs;
        unrepaired = acc.unrepaired + g.Replication.Group.unrepaired;
      })
    z t.pctx.Protocol.shards
