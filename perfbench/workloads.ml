(* The four benchmark workloads, each in two forms:

   - [harness]: the plain public driver call the CLI and every bench use.
     These are the measured runs; nothing is traced.
   - [assemble]: the same deployment built step by step from the public
     constructors the driver calls (cluster, clients, workload generator,
     client model, chaos schedule, engine). The benchmark then owns the
     engine and can attach host-side instruments to it. This is the traced
     run.

   Both forms must execute the identical seeded schedule. {!fingerprint}
   digests the deterministic counts of a run so the two can be compared. *)

type t = Spanner_dc | Gryff_dc_batched | Spanner_wan | Gryff_wan_chaos

let all = [ Spanner_dc; Gryff_dc_batched; Spanner_wan; Gryff_wan_chaos ]

let name = function
  | Spanner_dc -> "spanner-dc"
  | Gryff_dc_batched -> "gryff-dc-batched"
  | Spanner_wan -> "spanner-wan"
  | Gryff_wan_chaos -> "gryff-wan-chaos"

let of_name s = List.find_opt (fun w -> name w = s) all

let protocol = function
  | Spanner_dc | Spanner_wan -> Stat.Spanner
  | Gryff_dc_batched | Gryff_wan_chaos -> Stat.Gryff

let wan = function
  | Spanner_wan | Gryff_wan_chaos -> true
  | Spanner_dc | Gryff_dc_batched -> false

let fault_free = function Gryff_wan_chaos -> false | _ -> true

(* Simulated seconds per run: about a second of host time each, so a
   measurement holds many repeats. Every entry point below takes
   [?duration_s] to run the same workload shorter; the tests do. *)
let default_duration_s = function
  | Spanner_dc -> 0.75
  | Gryff_dc_batched -> 0.5
  | Spanner_wan -> 5.0
  | Gryff_wan_chaos -> 24.0

(* The drivers' warm-up share: a fifth of single-DC runs, a tenth of WAN
   runs. Ops issued before it are executed and checked but not recorded. *)
let warmup_s w ~duration_s = duration_s /. if wan w then 10.0 else 5.0

let duration_or w = function Some d -> d | None -> default_duration_s w

(* Completed ops a correct run must reach: about half of what one run
   completes. *)
let min_completed = function
  | Spanner_dc -> 8_000
  | Gryff_dc_batched -> 25_000
  | Spanner_wan -> 4_000
  | Gryff_wan_chaos -> 10_000

let n_keys = function Spanner_wan -> 1_000_000 | _ -> 2_000

let batch_policy = { Sim.Net.batch_us = 50; batch_max = 32; adaptive = true }

(* {2 Inputs}

   Everything random is derived from the seed: the drivers seed the
   workload streams from it, and the nemesis schedule is generated from it
   here, before the program runs. *)

let chaos ?duration_s w ~seed =
  let duration_s = duration_or w duration_s in
  match w with
  | Gryff_wan_chaos ->
    Some
      (Chaos.Nemesis.generate Chaos.Nemesis.Mixed ~n_sites:5
         ~duration_us:(Sim.Engine.sec duration_s)
         ~seed ())
  | Spanner_dc | Gryff_dc_batched | Spanner_wan -> None

(* {2 The measured run: a plain driver call} *)

let harness ?duration_s w ~seed ~chaos =
  let env = Harness.Env.(default |> with_check `Online) in
  let duration_s = duration_or w duration_s and n_keys = n_keys w in
  match w with
  | Spanner_dc ->
    Harness.spanner_dc ~env ~mode:Spanner.Config.Rss ~n_shards:4
      ~service_time_us:10 ~n_clients:16 ~n_keys ~duration_s ~seed ()
  | Gryff_dc_batched ->
    Harness.gryff_dc
      ~env:(Harness.Env.with_batching (Some batch_policy) env)
      ~mode:Gryff.Config.Rsc ~service_time_us:10 ~n_clients:48 ~conflict:0.1
      ~write_ratio:0.5 ~n_keys ~duration_s ~seed ()
  | Spanner_wan ->
    Harness.spanner_wan ~env ~mode:Spanner.Config.Rss ~theta:0.5 ~n_keys
      ~arrival_rate_per_sec:400.0 ~duration_s ~seed ()
  | Gryff_wan_chaos ->
    let env =
      match chaos with
      | Some s -> Harness.Env.(env |> with_chaos s |> with_failover true)
      | None -> env
    in
    Harness.gryff_wan ~n_clients:128 ~env ~mode:Gryff.Config.Rsc
      ~conflict:0.2 ~write_ratio:0.5 ~n_keys ~duration_s ~seed ()

(* {2 The traced run: the same deployment, assembled here} *)

(* Instruments the assembly attaches. All are host-side observation: none
   draws randomness or schedules events. The two spins are the self-check's
   planted costs: host CPU seconds burnt per record-hook call and per
   workload sample. *)
type probe = {
  tracer : Obs.Trace.t;  (** span sink *)
  hook_spin_s : float;
  sample_spin_s : float;
}

let plain = { tracer = Obs.Trace.disabled; hook_spin_s = 0.0; sample_spin_s = 0.0 }

(* Host CPU seconds spent in the benchmark's own instrumented calls (record
   hooks, workload samples), and which engine event kinds they ran inside.

   Instrumented calls nest inside events — a record hook inside whatever
   event completed the op (a delivery, a commit-wait timer, ...) — so the
   engine's per-kind time includes them. With [attribute] set, the first
   instrumented call in an event snapshots the engine's per-kind counts,
   which at that moment cover every earlier event but not the current one;
   after the event, {!attribute_event} finds the one kind whose count rose
   and charges it the instrumented time, snapshot included. *)
type ledger = {
  mutable hook_calls : int;
  mutable hook_s : float;
  mutable sample_calls : int;
  mutable sample_s : float;
  mutable issued : int;
  mutable completed : int;
  mutable attribute : Sim.Engine.t option;
  mutable event : int;  (** [executed] when [before] was taken *)
  mutable before : (string * int * float) list;
  mutable pending : bool;
  mutable pending_s : float;
  nested : (string, float) Hashtbl.t;  (** event kind -> nested seconds *)
  mutable attribution_s : float;  (** snapshots taken between events *)
}

let new_ledger () =
  { hook_calls = 0; hook_s = 0.0; sample_calls = 0; sample_s = 0.0; issued = 0;
    completed = 0; attribute = None; event = -1; before = []; pending = false;
    pending_s = 0.0; nested = Hashtbl.create 16; attribution_s = 0.0 }

(* {3 Planted cost and clock overhead} *)

let spin_sink = ref 0

(* A dependent multiply chain: pure computation, no memory traffic and no
   system calls, so burning it leaves the caches of the code around it as
   they were. *)
let spin_iters n =
  let x = ref !spin_sink in
  for i = 1 to n do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  spin_sink := !x

(* Spin iterations per host CPU second: the median of five 30M-iteration
   probes. Forced before a run so calibration never lands inside one. *)
let spin_rate =
  lazy
    (let probe () =
       let n = 30_000_000 in
       let t0 = Sys.time () in
       spin_iters n;
       float_of_int n /. Float.max 1e-6 (Sys.time () -. t0)
     in
     Stat.median (List.init 5 (fun _ -> probe ())))

(* Burn [s] host CPU seconds. *)
let spin s =
  if s > 0.0 then spin_iters (int_of_float (s *. Lazy.force spin_rate))

(* What one clock read adds to a timed call: the mean gap between two
   back-to-back reads, which is the cost of one read. *)
let clock_overhead_s () =
  let n = 200_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let t0 = Sys.time () in
    total := !total +. (Sys.time () -. t0)
  done;
  !total /. float_of_int n

(* Run [f] after a planted [spin_s]; its cost (spin included) in seconds. *)
let instrumented led ~spin_s f =
  let ts = Sys.time () in
  (match led.attribute with
  | Some engine when Sim.Engine.executed engine <> led.event ->
    led.event <- Sim.Engine.executed engine;
    led.before <- Sim.Engine.profile engine
  | _ -> ());
  let t0 = Sys.time () in
  spin spin_s;
  let x = f () in
  let t1 = Sys.time () in
  if led.attribute <> None then begin
    led.pending <- true;
    led.pending_s <- led.pending_s +. (t1 -. ts)
  end;
  (x, t1 -. t0)

(* Call after each engine step while attributing. *)
let attribute_event led =
  match led.attribute with
  | Some engine when led.pending ->
    let t0 = Sys.time () in
    let count k rows =
      match List.find_opt (fun (k', _, _) -> String.equal k k') rows with
      | Some (_, n, _) -> n
      | None -> 0
    in
    let kind =
      match
        List.find_opt (fun (k, n, _) -> n > count k led.before)
          (Sim.Engine.profile engine)
      with
      | Some (k, _, _) -> k
      | None -> "unattributed"
    in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt led.nested kind) in
    Hashtbl.replace led.nested kind (prev +. led.pending_s);
    led.pending <- false;
    led.pending_s <- 0.0;
    led.attribution_s <- led.attribution_s +. (Sys.time () -. t0)
  | _ -> ()

let nested_s led kind = Option.value ~default:0.0 (Hashtbl.find_opt led.nested kind)

let timed_hook led probe f x =
  let (), dt = instrumented led ~spin_s:probe.hook_spin_s (fun () -> f x) in
  led.hook_calls <- led.hook_calls + 1;
  led.hook_s <- led.hook_s +. dt

let timed_sample led probe f =
  let x, dt = instrumented led ~spin_s:probe.sample_spin_s f in
  led.sample_calls <- led.sample_calls + 1;
  led.sample_s <- led.sample_s +. dt;
  x

type outcome = {
  verdict : Harness.Run.verdict;
  counters : (string * int) list;  (** under the drivers' metric names *)
  latencies : (string * Stats.Recorder.t) list;
  history : Harness.Run.history;
  duration_us : int;
  result_s : float;  (** host CPU seconds settling the online verdicts *)
}

type assembled = {
  engine : Sim.Engine.t;
  stations : Sim.Station.t list;
  settle : unit -> outcome;  (** after the engine drains *)
}

let net_counters net ~faults =
  [
    ("net.messages", Sim.Net.messages_sent net);
    ("net.bytes", Sim.Net.bytes_sent net);
    ("fault.injected", faults);
    ("fault.dropped_crash", Sim.Net.dropped_crash net);
    ("fault.dropped_partition", Sim.Net.dropped_partition net);
    ("fault.dropped_loss", Sim.Net.dropped_loss net);
    ("fault.duplicated", Sim.Net.messages_duplicated net);
    ("fault.delayed", Sim.Net.messages_delayed net);
    ("batch.envelopes", Sim.Net.batch_envelopes net);
    ("batch.members", Sim.Net.batch_members net);
  ]

let check_counters ~added ~work ~max_displacement =
  [
    ("check.added", added);
    ("check.work", work);
    ("check.max_displacement", max_displacement);
  ]

let timed_result f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

(* -- Spanner ---------------------------------------------------------- *)

let spanner_outcome cluster oc ~latencies =
  let verdict, result_s = timed_result (fun () -> Rss_core.Check_online.result oc) in
  let s = Spanner.Cluster.stats cluster in
  let fs = Spanner.Cluster.flow_stats cluster in
  {
    verdict;
    counters =
      net_counters (Spanner.Cluster.net cluster) ~faults:0
      @ [
          ("rw.committed", s.Spanner.Cluster.rw_committed);
          ("rw.aborted_attempts", s.Spanner.Cluster.rw_aborted_attempts);
          ("rw.wounds", s.Spanner.Cluster.wounds);
          ("ro.count", s.Spanner.Cluster.ro_count);
          ("ro.slow", s.Spanner.Cluster.ro_slow);
          ("ro.blocked_at_shards", s.Spanner.Cluster.ro_blocked_at_shards);
          ("flow.abandoned", fs.Spanner.Cluster.abandoned);
        ]
      @ check_counters
          ~added:(Rss_core.Check_online.n_added oc)
          ~work:(Rss_core.Check_online.work oc)
          ~max_displacement:(Rss_core.Check_online.max_displacement oc);
    latencies;
    history = Harness.Run.Spanner_txns (Spanner.Cluster.records cluster);
    duration_us = Sim.Engine.now (Spanner.Cluster.engine cluster);
    result_s;
  }

(* Mirrors [Harness.spanner_dc] with [~env:(with_check `Online)]. *)
let spanner_dc ~duration_s ~seed probe led =
  let w = Spanner_dc in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config =
    Spanner.Config.single_dc ~mode:Spanner.Config.Rss ~n_shards:4
      ~service_time_us:10 ()
  in
  let cluster = Spanner.Cluster.create engine ~rng config in
  Sim.Net.set_batching (Spanner.Cluster.net cluster) None;
  if Obs.Trace.enabled probe.tracer then
    Spanner.Cluster.set_tracer cluster probe.tracer;
  let oc = Rss_core.Check_online.create ~mode:`Rss () in
  Spanner.Cluster.set_record_hook cluster
    (timed_hook led probe (Rss_core.Check_online.add oc));
  let retwis =
    Workload.Retwis.create ~rng:(Sim.Rng.split rng) ~n_keys:(n_keys w)
      ~theta:0.0
  in
  let lat = Stats.Recorder.create () in
  let until = Sim.Engine.sec duration_s in
  let warmup = Sim.Engine.sec (warmup_s w ~duration_s) in
  let n_clients = 16 in
  let clients =
    Array.init n_clients (fun _ -> Spanner.Client.create cluster ~site:0)
  in
  Workload.Client_model.closed_loop engine ~n_clients
    ~body:(fun ~client k ->
      let c = clients.(client) in
      led.issued <- led.issued + 1;
      let txn =
        timed_sample led probe (fun () -> Workload.Retwis.sample retwis)
      in
      let t0 = Sim.Engine.now engine in
      let finish () =
        led.completed <- led.completed + 1;
        if t0 >= warmup && t0 < until then
          Stats.Recorder.add lat (Sim.Engine.now engine - t0);
        k ()
      in
      if Workload.Retwis.is_read_only txn then
        Spanner.Client.ro c ~keys:txn.Workload.Retwis.read_keys (fun _ ->
            finish ())
      else
        Spanner.Client.rw c ~read_keys:txn.Workload.Retwis.read_keys
          ~write_keys:txn.Workload.Retwis.write_keys (fun _ -> finish ()))
    ~until ();
  {
    engine;
    stations = Spanner.Cluster.stations cluster;
    settle =
      (fun () -> spanner_outcome cluster oc ~latencies:[ ("txn", lat) ]);
  }

(* Mirrors [Harness.spanner_wan] with [~env:(with_check `Online)]. *)
let spanner_wan ~duration_s ~seed probe led =
  let w = Spanner_wan in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Spanner.Config.wan3 ~mode:Spanner.Config.Rss () in
  let cluster = Spanner.Cluster.create engine ~rng config in
  Sim.Net.set_batching (Spanner.Cluster.net cluster) None;
  if Obs.Trace.enabled probe.tracer then
    Spanner.Cluster.set_tracer cluster probe.tracer;
  let oc = Rss_core.Check_online.create ~mode:`Rss () in
  Spanner.Cluster.set_record_hook cluster
    (timed_hook led probe (Rss_core.Check_online.add oc));
  let retwis =
    Workload.Retwis.create ~rng:(Sim.Rng.split rng) ~n_keys:(n_keys w)
      ~theta:0.5
  in
  let ro = Stats.Recorder.create () and rw = Stats.Recorder.create () in
  let n_sites = Array.length config.Spanner.Config.client_sites in
  let sessions : (int, Spanner.Client.t) Hashtbl.t = Hashtbl.create 1024 in
  let until = Sim.Engine.sec duration_s in
  let warmup = Sim.Engine.sec (warmup_s w ~duration_s) in
  let body ~client k =
    let first = not (Hashtbl.mem sessions client) in
    let c =
      if first then begin
        let c =
          Spanner.Client.create cluster
            ~site:config.Spanner.Config.client_sites.(client mod n_sites)
        in
        Hashtbl.add sessions client c;
        c
      end
      else Hashtbl.find sessions client
    in
    led.issued <- led.issued + 1;
    let txn =
      timed_sample led probe (fun () -> Workload.Retwis.sample retwis)
    in
    let t0 = Sim.Engine.now engine in
    let finish recorder () =
      led.completed <- led.completed + 1;
      if t0 >= warmup then
        Stats.Recorder.add recorder (Sim.Engine.now engine - t0);
      k ()
    in
    if Workload.Retwis.is_read_only txn then
      Spanner.Client.ro c ~keys:txn.Workload.Retwis.read_keys (fun _ ->
          finish ro ())
    else
      Spanner.Client.rw c ~read_keys:txn.Workload.Retwis.read_keys
        ~write_keys:txn.Workload.Retwis.write_keys (fun _ -> finish rw ())
  in
  ignore
    (Workload.Client_model.partly_open engine ~rng:(Sim.Rng.split rng)
       ~arrival_rate_per_sec:400.0 ~stay:0.9 ~body ~until ());
  {
    engine;
    stations = Spanner.Cluster.stations cluster;
    settle =
      (fun () ->
        spanner_outcome cluster oc ~latencies:[ ("ro", ro); ("rw", rw) ]);
  }

(* -- Gryff ------------------------------------------------------------ *)

(* The drivers' record-to-witness conversion: one single-key transaction
   per op, carstamp as the claimed serialization order. *)
let gryff_witness_txn (r : Gryff.Cluster.record) =
  let key = string_of_int r.Gryff.Cluster.g_key in
  let reads =
    match r.Gryff.Cluster.g_kind with
    | Gryff.Cluster.Read | Gryff.Cluster.Rmw ->
      [ (key, r.Gryff.Cluster.g_observed) ]
    | Gryff.Cluster.Write -> []
  in
  let writes =
    match (r.Gryff.Cluster.g_kind, r.Gryff.Cluster.g_written) with
    | (Gryff.Cluster.Write | Gryff.Cluster.Rmw), Some v -> [ (key, v) ]
    | _ -> []
  in
  {
    Rss_core.Witness.proc = r.Gryff.Cluster.g_proc;
    reads;
    writes;
    inv = r.Gryff.Cluster.g_inv;
    resp = r.Gryff.Cluster.g_resp;
    ts = Gryff.Carstamp.pack r.Gryff.Cluster.g_cs;
    rank = (match r.Gryff.Cluster.g_kind with Gryff.Cluster.Read -> 1 | _ -> 0);
  }

(* One online checker per key, as the drivers keep them. *)
let arm_gryff_online cluster led probe =
  let tbl : (int, Rss_core.Check_online.t) Hashtbl.t = Hashtbl.create 256 in
  Gryff.Cluster.set_record_hook cluster
    (timed_hook led probe (fun r ->
         let oc =
           match Hashtbl.find_opt tbl r.Gryff.Cluster.g_key with
           | Some oc -> oc
           | None ->
             let oc = Rss_core.Check_online.create ~mode:`Rss () in
             Hashtbl.add tbl r.Gryff.Cluster.g_key oc;
             oc
         in
         Rss_core.Check_online.add oc (gryff_witness_txn r)));
  tbl

let gryff_verdict tbl =
  Hashtbl.fold
    (fun key oc acc ->
      match acc with
      | Harness.Run.Fail _ -> acc
      | Harness.Run.Pass | Harness.Run.Unknown _ -> (
        match Rss_core.Check_online.result oc with
        | Rss_core.Check_online.Pass -> acc
        | Rss_core.Check_online.Fail m ->
          Harness.Run.Fail (Printf.sprintf "key %d: %s" key m)
        | Rss_core.Check_online.Unknown m -> (
          match acc with
          | Harness.Run.Unknown _ -> acc
          | _ -> Harness.Run.Unknown (Printf.sprintf "key %d: %s" key m))))
    tbl Harness.Run.Pass

let gryff_outcome cluster tbl ~faults ~latencies =
  let verdict, result_s = timed_result (fun () -> gryff_verdict tbl) in
  let added, work, max_displacement =
    Hashtbl.fold
      (fun _ oc (a, w, d) ->
        ( a + Rss_core.Check_online.n_added oc,
          w + Rss_core.Check_online.work oc,
          max d (Rss_core.Check_online.max_displacement oc) ))
      tbl (0, 0, 0)
  in
  let s = Gryff.Cluster.stats cluster in
  let rs = Gryff.Cluster.retrans_stats cluster in
  let fs = Gryff.Cluster.flow_stats cluster in
  {
    verdict;
    counters =
      net_counters (Gryff.Cluster.net cluster) ~faults
      @ [
          ("read.count", s.Gryff.Cluster.reads);
          ("read.second_round", s.Gryff.Cluster.read_second_round);
          ("read.deps_created", s.Gryff.Cluster.deps_created);
          ("write.count", s.Gryff.Cluster.writes);
          ("rmw.count", s.Gryff.Cluster.rmws);
          ("failover.rpc_calls", rs.Gryff.Cluster.rpc_calls);
          ("failover.rpc_retries", rs.Gryff.Cluster.rpc_retries);
          ("failover.rpc_exhausted", rs.Gryff.Cluster.rpc_exhausted);
          ("flow.abandoned", fs.Gryff.Cluster.abandoned);
        ]
      @ check_counters ~added ~work ~max_displacement;
    latencies;
    history = Harness.Run.Gryff_ops (Gryff.Cluster.records cluster);
    duration_us = Sim.Engine.now (Gryff.Cluster.engine cluster);
    result_s;
  }

(* Mirrors [Harness.gryff_dc] with online checking and [batch_policy]. *)
let gryff_dc_batched ~duration_s ~seed probe led =
  let w = Gryff_dc_batched in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config =
    Gryff.Config.single_dc ~mode:Gryff.Config.Rsc ~service_time_us:10 ()
  in
  let cluster = Gryff.Cluster.create engine ~rng config in
  Sim.Net.set_batching (Gryff.Cluster.net cluster) (Some batch_policy);
  if Obs.Trace.enabled probe.tracer then
    Gryff.Cluster.set_tracer cluster probe.tracer;
  let tbl = arm_gryff_online cluster led probe in
  let ycsb =
    Workload.Ycsb.create ~rng:(Sim.Rng.split rng) ~n_keys:(n_keys w)
      ~write_ratio:0.5 ~conflict:0.1
  in
  let lat = Stats.Recorder.create () in
  let until = Sim.Engine.sec duration_s in
  let warmup = Sim.Engine.sec (warmup_s w ~duration_s) in
  let n_clients = 48 in
  let clients =
    Array.init n_clients (fun i -> Gryff.Client.create cluster ~site:(i mod 5))
  in
  Workload.Client_model.closed_loop engine ~n_clients
    ~body:(fun ~client k ->
      let c = clients.(client) in
      led.issued <- led.issued + 1;
      let op =
        timed_sample led probe (fun () -> Workload.Ycsb.sample ycsb)
      in
      let t0 = Sim.Engine.now engine in
      let finish () =
        led.completed <- led.completed + 1;
        if t0 >= warmup && t0 < until then
          Stats.Recorder.add lat (Sim.Engine.now engine - t0);
        k ()
      in
      if op.Workload.Ycsb.is_write then
        let value = Gryff.Cluster.fresh_value cluster in
        Gryff.Client.write c ~key:op.Workload.Ycsb.key ~value (fun _ ->
            finish ())
      else Gryff.Client.read c ~key:op.Workload.Ycsb.key (fun _ -> finish ()))
    ~until ();
  {
    engine;
    stations = Gryff.Cluster.stations cluster;
    settle =
      (fun () -> gryff_outcome cluster tbl ~faults:0 ~latencies:[ ("op", lat) ]);
  }

(* A write whose propagate phase began may be visible even if its acks were
   lost; the drivers sweep such writes into the history before checking. *)
type pending_write = {
  pw_proc : int;
  pw_inv : int;
  pw_key : int;
  pw_value : int;
  mutable pw_cs : Gryff.Carstamp.t option;
  mutable pw_done : bool;
}

(* Mirrors [Harness.gryff_wan ~n_clients:128] with online checking, the
   nemesis schedule and retransmission armed. *)
let gryff_wan_chaos ~duration_s ~seed ~schedule probe led =
  let w = Gryff_wan_chaos in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Gryff.Config.wan5 ~mode:Gryff.Config.Rsc () in
  let cluster = Gryff.Cluster.create engine ~rng config in
  Sim.Net.set_batching (Gryff.Cluster.net cluster) None;
  if Obs.Trace.enabled probe.tracer then
    Gryff.Cluster.set_tracer cluster probe.tracer;
  Gryff.Cluster.enable_retrans cluster ~rng:(Sim.Rng.make (0xfa11 + seed)) ();
  let faults = ref 0 in
  ignore
    (Chaos.Schedule.apply schedule ~engine ~net:(Gryff.Cluster.net cluster)
       ~tracer:probe.tracer
       ~on_fault:(fun (ev : Chaos.Schedule.event) ->
         incr faults;
         match ev.Chaos.Schedule.fault with
         | Chaos.Schedule.Slow { site; factor } ->
           Gryff.Cluster.set_site_slowdown cluster ~site ~factor
         | Chaos.Schedule.Slow_clear -> Gryff.Cluster.clear_slowdowns cluster
         | _ -> ())
       ());
  let tbl = arm_gryff_online cluster led probe in
  let pending : pending_write list ref = ref [] in
  let ycsb =
    Workload.Ycsb.create ~rng:(Sim.Rng.split rng) ~n_keys:(n_keys w)
      ~write_ratio:0.5 ~conflict:0.2
  in
  let read_lat = Stats.Recorder.create ()
  and write_lat = Stats.Recorder.create () in
  let until = Sim.Engine.sec duration_s in
  let warmup = Sim.Engine.sec (warmup_s w ~duration_s) in
  let n_clients = 128 in
  let clients =
    Array.init n_clients (fun i -> Gryff.Client.create cluster ~site:(i mod 5))
  in
  Workload.Client_model.closed_loop engine ~n_clients
    ~body:(fun ~client k ->
      let c = clients.(client) in
      led.issued <- led.issued + 1;
      let op =
        timed_sample led probe (fun () -> Workload.Ycsb.sample ycsb)
      in
      let t0 = Sim.Engine.now engine in
      let finish recorder () =
        led.completed <- led.completed + 1;
        if t0 >= warmup then
          Stats.Recorder.add recorder (Sim.Engine.now engine - t0);
        k ()
      in
      if op.Workload.Ycsb.is_write then begin
        let info =
          {
            pw_proc = Gryff.Client.proc c;
            pw_inv = t0;
            pw_key = op.Workload.Ycsb.key;
            pw_value = Gryff.Cluster.fresh_value cluster;
            pw_cs = None;
            pw_done = false;
          }
        in
        pending := info :: !pending;
        Gryff.Client.write c
          ~on_apply:(fun cs -> info.pw_cs <- Some cs)
          ~key:op.Workload.Ycsb.key ~value:info.pw_value
          (fun _ ->
            info.pw_done <- true;
            finish write_lat ())
      end
      else
        Gryff.Client.read c ~key:op.Workload.Ycsb.key (fun _ ->
            finish read_lat ()))
    ~until ();
  {
    engine;
    stations = Gryff.Cluster.stations cluster;
    settle =
      (fun () ->
        List.iter
          (fun info ->
            match (info.pw_done, info.pw_cs) with
            | false, Some cs ->
              Chaos.Audit.sweep_gryff_write cluster ~proc:info.pw_proc
                ~inv:info.pw_inv ~key:info.pw_key ~value:info.pw_value ~cs
            | _ -> ())
          (List.rev !pending);
        gryff_outcome cluster tbl ~faults:!faults
          ~latencies:[ ("read", read_lat); ("write", write_lat) ]);
  }

let assemble ?duration_s w ~seed ~chaos probe led =
  let duration_s = duration_or w duration_s in
  match (w, chaos) with
  | Spanner_dc, _ -> spanner_dc ~duration_s ~seed probe led
  | Gryff_dc_batched, _ -> gryff_dc_batched ~duration_s ~seed probe led
  | Spanner_wan, _ -> spanner_wan ~duration_s ~seed probe led
  | Gryff_wan_chaos, Some schedule ->
    gryff_wan_chaos ~duration_s ~seed ~schedule probe led
  | Gryff_wan_chaos, None -> invalid_arg "Workloads.assemble: schedule missing"

(* Drain the assembled run's engine exactly as the drivers do. *)
let run_assembled a =
  Sim.Engine.run ~max_events:600_000_000 a.engine;
  a.settle ()

(* Drain the engine one event at a time with the engine's per-kind profile
   and station sampling on, attributing each instrumented call to the event
   kind it ran inside. Host-side only: the schedule is the drivers'. The
   caller settles the run afterwards. *)
let run_attributed a led =
  Sim.Engine.enable_profiling a.engine;
  List.iter (fun st -> Sim.Station.set_observe st true) a.stations;
  led.attribute <- Some a.engine;
  while Sim.Engine.step a.engine do
    attribute_event led
  done;
  led.attribute <- None

(* {2 What both forms report} *)

let verdict_string = function
  | Harness.Run.Pass -> "pass"
  | Harness.Run.Fail m -> "fail: " ^ m
  | Harness.Run.Unknown m -> "unknown: " ^ m

(* Ops whose response the history holds; swept writes carry none. *)
let completed_of_history = function
  | Harness.Run.Spanner_txns a ->
    Array.fold_left
      (fun n (t : Rss_core.Witness.txn) ->
        if t.Rss_core.Witness.resp <> max_int then n + 1 else n)
      0 a
  | Harness.Run.Gryff_ops a ->
    Array.fold_left
      (fun n (r : Gryff.Cluster.record) ->
        if r.Gryff.Cluster.g_resp <> max_int then n + 1 else n)
      0 a

let n_history = function
  | Harness.Run.Spanner_txns a -> Array.length a
  | Harness.Run.Gryff_ops a -> Array.length a

let fingerprint_counters w =
  [
    "net.messages"; "net.bytes"; "fault.injected"; "fault.dropped_crash";
    "fault.dropped_partition"; "fault.dropped_loss"; "fault.duplicated";
    "fault.delayed"; "batch.envelopes"; "batch.members"; "check.added";
    "check.work"; "check.max_displacement"; "flow.abandoned";
  ]
  @
  match protocol w with
  | Stat.Spanner ->
    [ "rw.committed"; "rw.aborted_attempts"; "rw.wounds"; "ro.count";
      "ro.slow"; "ro.blocked_at_shards" ]
  | Stat.Gryff ->
    [ "read.count"; "read.second_round"; "read.deps_created"; "write.count";
      "rmw.count"; "failover.rpc_calls"; "failover.rpc_retries";
      "failover.rpc_exhausted" ]

(* Every deterministic count of a run, as text: counters, recorder sizes
   and percentiles, history size, drain time and verdict. Equal text means
   the runs executed the same schedule. *)
let fingerprint w ~counter ~latencies ~history ~duration_us ~verdict =
  let b = Buffer.create 1024 in
  List.iter
    (fun n -> Printf.bprintf b "%s=%d\n" n (counter n))
    (fingerprint_counters w);
  List.iter
    (fun (n, r) ->
      Printf.bprintf b "%s.count=%d\n" n (Stats.Recorder.count r);
      List.iter
        (fun p ->
          match Stats.Recorder.percentile_opt r p with
          | Some v -> Printf.bprintf b "%s.p%g=%.17g\n" n p v
          | None -> ())
        [ 50.0; 99.0; 99.9 ])
    latencies;
  Printf.bprintf b "history=%d completed=%d duration_us=%d verdict=%s\n"
    (n_history history)
    (completed_of_history history)
    duration_us (verdict_string verdict);
  Buffer.contents b

let fingerprint_of_run w (r : Harness.Run.t) =
  fingerprint w ~counter:(Harness.Run.counter r) ~latencies:r.Harness.Run.latencies
    ~history:r.Harness.Run.records ~duration_us:r.Harness.Run.duration_us
    ~verdict:r.Harness.Run.check

let counter_of_outcome o name =
  match List.assoc_opt name o.counters with Some v -> v | None -> 0

let fingerprint_of_outcome w o =
  fingerprint w ~counter:(counter_of_outcome o) ~latencies:o.latencies
    ~history:o.history ~duration_us:o.duration_us ~verdict:o.verdict

(* {2 Modelled latency}

   Throughput and tails come from the drivers' recorders. The WAN drivers
   split them by op kind (Spanner RO/RW, Gryff read/write); the single-DC
   drivers keep one recorder, so there the read/write split is read off the
   history's invocation and response times over the same measured window. *)

let split_by_kind w ~duration_s history =
  let reads = Stats.Recorder.create () and writes = Stats.Recorder.create () in
  let lo = Sim.Engine.sec (warmup_s w ~duration_s)
  and hi = Sim.Engine.sec duration_s in
  let add ~is_read ~inv ~resp =
    if resp <> max_int && inv >= lo && inv < hi then
      Stats.Recorder.add (if is_read then reads else writes) (resp - inv)
  in
  (match history with
  | Harness.Run.Spanner_txns a ->
    Array.iter
      (fun (t : Rss_core.Witness.txn) ->
        add ~is_read:(t.Rss_core.Witness.writes = []) ~inv:t.Rss_core.Witness.inv
          ~resp:t.Rss_core.Witness.resp)
      a
  | Harness.Run.Gryff_ops a ->
    Array.iter
      (fun (r : Gryff.Cluster.record) ->
        add
          ~is_read:(r.Gryff.Cluster.g_kind = Gryff.Cluster.Read)
          ~inv:r.Gryff.Cluster.g_inv ~resp:r.Gryff.Cluster.g_resp)
      a);
  (reads, writes)

(* One modelled-latency figure of one recorder ("all", "read" or "write"):
   its mean or a percentile, with the recorder's sample count so the tail
   rule can be applied. *)
type figure = { f_name : string; value_ms : float; samples : int }

let figure_name ~kind ~stat =
  Printf.sprintf "sim_%s%s_ms" (if kind = "all" then "" else kind ^ "_") stat

let figure_stats = [ ("mean", None); ("p50", Some 500); ("p99", Some 990); ("p999", Some 999) ]

(* Every figure a run reports, as (name, percentile in parts per thousand;
   [None] for the mean). *)
let figure_specs =
  List.concat_map
    (fun kind ->
      List.map (fun (stat, permille) -> (figure_name ~kind ~stat, permille)) figure_stats)
    [ "all"; "read"; "write" ]

let figures w ~latencies ~history =
  let duration_s = default_duration_s w in
  let all =
    List.fold_left
      (fun acc (_, r) -> Stats.Recorder.merge acc r)
      (Stats.Recorder.create ()) latencies
  in
  let reads, writes =
    match latencies with
    | [ (_, reads); (_, writes) ] -> (reads, writes)
    | _ -> split_by_kind w ~duration_s history
  in
  List.concat_map
    (fun (kind, r) ->
      let samples = Stats.Recorder.count r in
      List.map
        (fun (stat, permille) ->
          let value_ms =
            if samples = 0 then Float.nan
            else
              match permille with
              | None -> Stats.Recorder.mean r /. 1000.0
              | Some p -> Stats.Recorder.percentile_ms r (float_of_int p /. 10.0)
          in
          { f_name = figure_name ~kind ~stat; value_ms; samples })
        figure_stats)
    [ ("all", all); ("read", reads); ("write", writes) ]

(* Recorded ops per simulated second of the measured window. *)
let sim_tput_ops_s w ~latencies =
  let duration_s = default_duration_s w in
  let n = List.fold_left (fun n (_, r) -> n + Stats.Recorder.count r) 0 latencies in
  float_of_int n /. (duration_s -. warmup_s w ~duration_s)
