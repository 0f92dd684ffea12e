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

let migrate ?no_fence t ~lo ~hi ~dst = Protocol.migrate ?no_fence t.pctx ~lo ~hi ~dst

let set_tracer t tracer = Protocol.set_tracer t.pctx tracer

let tracer t = t.pctx.Protocol.tracer

(* ------------------------------------------------------------------ *)
(* Run counters                                                       *)
(* ------------------------------------------------------------------ *)

let counters t =
  let p = t.pctx in
  let s = stats t in
  let ps = p.Protocol.place_stats in
  let dir = directory t in
  [
    ("rw.committed", s.rw_committed);
    ("rw.aborted_attempts", s.rw_aborted_attempts);
    ("rw.wounds", s.wounds);
    ("ro.count", s.ro_count);
    ("ro.slow", s.ro_slow);
    ("ro.blocked_at_shards", s.ro_blocked_at_shards);
    ("place.epoch", Place.Directory.epoch dir);
    ("place.migrations", ps.Protocol.completed);
    ("place.migrations_failed", ps.Protocol.failed);
    ("place.migration_retries", ps.Protocol.source_retries);
    ("place.keys_moved", ps.Protocol.keys_moved);
    ("place.redirects", p.Protocol.n_redirects);
    ("place.fence_blocked", p.Protocol.n_fence_blocked);
    ("place.fence_hold_us", ps.Protocol.fence_hold_us);
    ("place.max_fence_hold_us", ps.Protocol.max_fence_hold_us);
    ("place.directory_appends", Place.Directory.durable_appends dir);
  ]
  @
  if not p.Protocol.failover then []
  else
    let groups =
      Array.map (fun sh -> Replication.Group.stats sh.Shard.repl) p.Protocol.shards
    in
    let sum f = Array.fold_left (fun acc g -> acc + f g) 0 groups in
    let rpc f = match p.Protocol.rpc with Some r -> f r | None -> 0 in
    Replication.Group.
      [
        ("failover.view_changes", sum (fun g -> g.view_changes));
        ("failover.heartbeats", sum (fun g -> g.heartbeats));
        ("failover.catchups", sum (fun g -> g.catchups));
        ("failover.dup_acks", sum (fun g -> g.dup_acks));
        ( "failover.max_election_us",
          Array.fold_left (fun acc g -> max acc g.max_election_us) 0 groups );
        ("failover.terminates", p.Protocol.n_terminates);
        ("failover.terminate_commits", p.Protocol.n_terminate_commits);
        ("failover.in_doubt_resolved", p.Protocol.n_in_doubt_resolved);
        ("failover.rpc_retries", rpc Sim.Rpc.retries);
        ("failover.rpc_exhausted", rpc Sim.Rpc.exhausted);
        ("failover.durable_appends", sum (fun g -> g.durable_appends));
        ("failover.durable_bytes", sum (fun g -> g.durable_bytes));
        ("durable.repair.torn", sum (fun g -> g.torn_repaired));
        ("durable.repair.quarantined", sum (fun g -> g.corrupt_quarantined));
        ("durable.repair.peer", sum (fun g -> g.peer_repairs));
        ("durable.repair.unrepaired", sum (fun g -> g.unrepaired));
        ("durable.repair.place", Place.Directory.repairs dir);
      ]
