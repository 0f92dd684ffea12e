type op_kind = Read | Write | Rmw

type record = {
  g_proc : int;
  g_kind : op_kind;
  g_key : int;
  g_observed : int option;
  g_written : int option;
  g_cs : Carstamp.t;
  g_inv : int;
  g_resp : int;
}

type t = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  config : Config.t;
  pctx : Protocol.ctx;
  mutable next_proc : int;
  mutable next_value : int;
  mutable record_list : record list;
  mutable record_hook : record -> unit;
}

let create engine ~rng (config : Config.t) =
  let net =
    Sim.Net.create engine ~rng:(Sim.Rng.split rng) ~rtt_ms:config.Config.rtt_ms
      ~jitter:config.Config.jitter ()
  in
  let pctx = Protocol.make_ctx engine net config in
  {
    engine;
    net;
    config;
    pctx;
    next_proc = 0;
    next_value = 1_000_000_000;
    record_list = [];
    record_hook = ignore;
  }

let engine t = t.engine

let config t = t.config

let ctx t = t.pctx

let net t = t.net

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
  t.record_hook r

let set_record_hook t f = t.record_hook <- f

let records t = Array.of_list (List.rev t.record_list)

(* A register record as a one-op witness transaction: carstamp as the
   claimed order, a read ranked after the mutator of its carstamp. *)
let witness_txn r =
  let key = string_of_int r.g_key in
  let writes = match (r.g_kind, r.g_written) with Read, _ | _, None -> [] | _, Some v -> [ (key, v) ] in
  { Rss_core.Witness.proc = r.g_proc;
    reads = (if r.g_kind = Write then [] else [ (key, r.g_observed) ]);
    writes; inv = r.g_inv; resp = r.g_resp; ts = Carstamp.pack r.g_cs;
    rank = (if r.g_kind = Read then 1 else 0) }

let check_records ~mode records =
  let mode = match mode with Config.Lin -> `Strict | Config.Rsc -> `Rss in
  Result.map ignore (Rss_core.Check_graph.check ~mode (Array.map witness_txn records))

let check_history t = check_records ~mode:t.config.Config.mode (records t)

type stats = {
  reads : int;
  read_second_round : int;
  deps_created : int;
  writes : int;
  rmws : int;
  rmw_slow : int;
  messages : int;
}

let stats t =
  {
    reads = t.pctx.Protocol.n_reads;
    read_second_round = t.pctx.Protocol.n_read_second_round;
    deps_created = t.pctx.Protocol.n_deps_created;
    writes = t.pctx.Protocol.n_writes;
    rmws = t.pctx.Protocol.n_rmws;
    rmw_slow = t.pctx.Protocol.n_rmw_slow;
    messages = Sim.Net.messages_sent t.net;
  }

let set_tracer t tracer = Protocol.set_tracer t.pctx tracer

let tracer t = t.pctx.Protocol.tracer

let enable_retrans t ~rng () = Protocol.enable_retrans t.pctx ~rng

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

type retrans_stats = { rpc_calls : int; rpc_retries : int; rpc_exhausted : int }

let retrans_stats t =
  match t.pctx.Protocol.retrans with
  | None -> { rpc_calls = 0; rpc_retries = 0; rpc_exhausted = 0 }
  | Some r ->
    {
      rpc_calls = Sim.Rpc.calls r;
      rpc_retries = Sim.Rpc.retries r;
      rpc_exhausted = Sim.Rpc.exhausted r;
    }

(* ------------------------------------------------------------------ *)
(* Run counters                                                       *)
(* ------------------------------------------------------------------ *)

let counters t =
  let s = stats t in
  [
    ("read.count", s.reads);
    ("read.second_round", s.read_second_round);
    ("read.deps_created", s.deps_created);
    ("write.count", s.writes);
    ("rmw.count", s.rmws);
    ("rmw.slow", s.rmw_slow);
  ]
  @
  match t.pctx.Protocol.retrans with
  | None -> []
  | Some _ ->
    let rs = retrans_stats t in
    [
      ("failover.rpc_calls", rs.rpc_calls);
      ("failover.rpc_retries", rs.rpc_retries);
      ("failover.rpc_exhausted", rs.rpc_exhausted);
    ]
