(* Experiment drivers: every run — the paper's four experiments and the
   chaos audits — goes through one driver core ([drive]) and returns one
   {!Run.t}: latency recorders, a metrics-registry snapshot, the run's
   history, and the history-verification verdict (a bench that produced an
   inconsistent run would be measuring a broken system). *)

module Run = struct
  type history =
    | Spanner_txns of Rss_core.Witness.txn array
    | Gryff_ops of Gryff.Cluster.record array

  type verdict = Rss_core.Check_online.verdict =
    | Pass
    | Fail of string
    | Unknown of string

  type t = {
    latencies : (string * Stats.Recorder.t) list;
    metrics : Obs.Metrics.snapshot;
    check : verdict;
    records : history;
    duration_us : int;
  }

  let passed t = match t.check with Pass -> true | Fail _ | Unknown _ -> false

  let empty_recorder = Stats.Recorder.create ()

  let latency t name =
    match List.assoc_opt name t.latencies with
    | Some r -> r
    | None -> empty_recorder

  let counter t name = Obs.Metrics.counter_value t.metrics name

  let gauge t name = Obs.Metrics.gauge_value t.metrics name

  (* Absent (or NaN, e.g. a p50 over an empty recorder) gauges come back as
     [None], so callers render "n/a" instead of leaking [nan] into tables
     and jq gates. *)
  let gauge_opt t name =
    let v = Obs.Metrics.gauge_value t.metrics name in
    if Float.is_nan v then None else Some v

  let completed t =
    List.fold_left (fun acc (_, r) -> acc + Stats.Recorder.count r) 0 t.latencies

  let n_records t =
    match t.records with
    | Spanner_txns a -> Array.length a
    | Gryff_ops a -> Array.length a

  let print_latencies ?(header = "latency (ms)") t =
    Stats.Summary.print_latency_table ~header ~rows:t.latencies ()

  let print_metrics ?header t = Obs.Metrics.print_table ?header t.metrics

  let report_check name = function
    | Pass -> ()
    | Fail m ->
      Fmt.pr "  !! %s: consistency violation in run history: %s@." name m
    | Unknown m -> Fmt.pr "  ?? %s: consistency verdict unknown: %s@." name m

  let print_summary ?(header = "run") t =
    print_latencies ~header:(header ^ " latency (ms)") t;
    print_metrics ~header t;
    report_check header t.check
end

type check_mode = [ `Online | `No_check ]

(* One live migration armed partway through a run: move [rs_lo, rs_hi) to
   [rs_dst] at fraction [rs_at] of the run. [rs_no_fence] skips the t_m
   real-time barrier — the unsafe mutation control for safety experiments. *)
type reshard_spec = {
  rs_at : float;
  rs_lo : int;
  rs_hi : int;
  rs_dst : int;
  rs_no_fence : bool;
}

(* The overload-protection policy a driver applies to its cluster: all
   fields off reproduce the unprotected run byte for byte. The budget is
   given as (capacity, refill_period_us) rather than a built bucket because
   the bucket needs the run's engine, which the driver owns. *)
type flow_spec = {
  fl_admission : Sim.Station.limits option;
      (* bounded queues + shedding at every server station *)
  fl_drop_expired : bool;  (* servers drop work already past its deadline *)
  fl_hedge_us : int;  (* hedge reads still unfinished after this; 0 = off *)
  fl_budget : (int * int) option;  (* retry bucket: capacity, refill µs *)
  fl_gryff_fanout : Gryff.Protocol.read_fanout option;
      (* read fan-out policy; None keeps each protocol's default *)
}

let flow_default =
  {
    fl_admission = None;
    fl_drop_expired = false;
    fl_hedge_us = 0;
    fl_budget = None;
    fl_gryff_fanout = None;
  }

let audit_keys = function
  | Chaos.Audit.Spanner_strict | Chaos.Audit.Spanner_rss -> 5_000
  | Chaos.Audit.Gryff_lin | Chaos.Audit.Gryff_rsc -> 2_000

(* Live migrations of the Zipfian head — the hottest eighth of the
   keyspace — spread over the run, each to a different destination shard
   of the audit deployment. Gryff has no elastic placement. *)
let audit_migrations protocol ~n_keys n =
  match Chaos.Audit.deployment protocol with
  | Chaos.Audit.Gryff_wan _ -> []
  | Chaos.Audit.Spanner_wan config ->
    List.init n (fun i ->
        {
          rs_at = 0.30 +. (0.25 *. float_of_int i);
          rs_lo = 0;
          rs_hi = max 1 (n_keys / 8);
          rs_dst = (i + 1) mod config.Spanner.Config.n_shards;
          rs_no_fence = false;
        })

(* The cross-cutting run environment, applied by the driver core the same
   way on every deployment. *)
module Env = struct
  type t = {
    chaos : Chaos.Schedule.t option;
    disk_faults : Chaos.Audit.disk_faults option;
    failover : bool;
    trace : Obs.Trace.t;
    check : check_mode;
    reshard : reshard_spec list;
    batching : Sim.Net.policy option;
    deadline_us : int option;
    flow : flow_spec option;
  }

  let default =
    {
      chaos = None;
      disk_faults = None;
      failover = false;
      trace = Obs.Trace.disabled;
      check = `Online;
      reshard = [];
      batching = None;
      deadline_us = None;
      flow = None;
    }

  let with_chaos s t = { t with chaos = Some s }
  let with_disk_faults d t = { t with disk_faults = Some d }
  let with_failover b t = { t with failover = b }
  let with_trace tr t = { t with trace = tr }
  let with_check c t = { t with check = c }

  let with_reshard r t = { t with reshard = r }
  let with_batching p t = { t with batching = p }

  let with_deadline_us d t =
    (match d with
    | Some d when d <= 0 ->
      invalid_arg "Harness.Env.with_deadline_us: deadline must be positive"
    | _ -> ());
    { t with deadline_us = d }

  let with_flow f t =
    (match f with
    | Some { fl_hedge_us; _ } when fl_hedge_us < 0 ->
      invalid_arg "Harness.Env.with_flow: hedge delay must be non-negative"
    | Some { fl_gryff_fanout = Some Gryff.Protocol.Hedged; fl_hedge_us = 0; _ }
      ->
      invalid_arg "Harness.Env.with_flow: Hedged fan-out needs a hedge delay"
    | _ -> ());
    { t with flow = f }

  (* The one place a nemesis preset becomes an audit run's faults. *)
  let of_preset ?disk_rate ?n_keys protocol preset ~duration_s ~nemesis_seed
      =
    let tuned = Chaos.Nemesis.disk_spec preset in
    let spec =
      match disk_rate with
      | None -> tuned
      | Some r when r < 0.0 ->
        invalid_arg "Harness.Env.of_preset: disk rate must be non-negative"
      | Some 0.0 -> None
      | Some r ->
        Some
          (Sim.Durable.Faults.scale r
             (Option.value tuned ~default:Sim.Durable.Faults.default_spec))
    in
    let n_keys = Option.value n_keys ~default:(audit_keys protocol) in
    let env =
      default
      |> with_chaos
           (Chaos.Audit.nemesis_schedule protocol preset ~duration_s
              ~seed:nemesis_seed)
      |> with_failover (Chaos.Nemesis.requires_failover preset)
      |> with_reshard
           (audit_migrations protocol ~n_keys
              (if Chaos.Nemesis.requires_reshard preset then 2 else 0))
    in
    match spec with
    | None -> env
    | Some spec ->
      with_disk_faults
        (Chaos.Audit.default_disk_faults ~spec ~seed:nemesis_seed ())
        env
end

(* {2 Metrics} *)

let add reg name v = Obs.Metrics.add (Obs.Metrics.counter reg name) v

(* Disk-fault and scrub accounting. Runs without disk faults never install
   a control, so the counters stay absent. *)
let durable_metrics reg ~dctl ~scrub =
  match dctl with
  | None -> ()
  | Some ctl ->
    let c = add reg in
    let ds = Sim.Durable.Faults.stats ctl in
    c "durable.fault.torn" ds.Sim.Durable.Faults.fs_torn;
    c "durable.fault.corrupt" ds.Sim.Durable.Faults.fs_corrupt;
    c "durable.fault.resurfaced" ds.Sim.Durable.Faults.fs_resurfaced;
    c "durable.fault.lost_ints" ds.Sim.Durable.Faults.fs_lost_ints;
    c "durable.fault.crashes" ds.Sim.Durable.Faults.fs_crashes;
    (match scrub with
    | Some (s : Sim.Scrub.stats) ->
      c "durable.scrub.passes" s.Sim.Scrub.passes;
      c "durable.scrub.entries" s.Sim.Scrub.entries;
      c "durable.scrub.flagged" s.Sim.Scrub.flagged
    | None -> ())

(* Fold the network/fault accounting into a registry. All-zero counters are
   harmless: snapshots keep them, the table renderer filters them. *)
let net_metrics reg ~faults net =
  let c = add reg in
  c "net.messages" (Sim.Net.messages_sent net);
  c "net.bytes" (Sim.Net.bytes_sent net);
  c "fault.injected" faults;
  c "fault.dropped_crash" (Sim.Net.dropped_crash net);
  c "fault.dropped_partition" (Sim.Net.dropped_partition net);
  c "fault.dropped_loss" (Sim.Net.dropped_loss net);
  c "fault.duplicated" (Sim.Net.messages_duplicated net);
  c "fault.delayed" (Sim.Net.messages_delayed net);
  (* Batching accounting — absent on unbatched runs. *)
  if Sim.Net.batch_envelopes net > 0 then begin
    c "batch.envelopes" (Sim.Net.batch_envelopes net);
    c "batch.members" (Sim.Net.batch_members net);
    c "batch.flush.deadline" (Sim.Net.batch_flush_deadline net);
    c "batch.flush.size" (Sim.Net.batch_flush_size net);
    c "batch.flush.idle" (Sim.Net.batch_flush_idle net);
    c "batch.max_members" (Sim.Net.batch_max_members net);
    (* Members-per-envelope distribution. Registry histograms follow the
       µs convention and render in ms, so sizes are stored ×1000: the
       printed table and [Recorder.percentile_ms] read directly in whole
       members. *)
    let h = Obs.Metrics.histogram reg "batch.size" in
    Stats.Recorder.iter
      (fun n -> Stats.Recorder.add h (n * 1000))
      (Sim.Net.batch_sizes net)
  end

(* Flow-control accounting — absent unless a protection is armed or fired,
   mirroring the batch.* convention. Queue-depth samples follow the ×1000
   histogram convention (see batch.size above): the printed table reads in
   whole jobs. *)
let flow_metrics reg ~armed ~stations flow =
  let { Sim.Flow.expired; shed; abandoned; hedges; hedge_wins } =
    Sim.Flow.stats flow
  in
  if armed || expired > 0 || shed > 0 || abandoned > 0 || hedges > 0 then begin
    let c = add reg in
    c "flow.expired" expired;
    c "flow.shed" shed;
    c "flow.abandoned" abandoned;
    c "flow.hedges" hedges;
    c "flow.hedge_wins" hedge_wins;
    (match Sim.Flow.budget flow with
    | Some b ->
      c "flow.budget.taken" (Sim.Flow.Budget.taken b);
      c "flow.budget.denied" (Sim.Flow.Budget.denied b)
    | None -> ());
    let qd = Obs.Metrics.histogram reg "flow.queue_depth" in
    let sj = Obs.Metrics.histogram reg "flow.sojourn_us" in
    List.iter
      (fun st ->
        Stats.Recorder.iter
          (fun d -> Stats.Recorder.add qd (d * 1000))
          (Sim.Station.queue_depths st);
        Stats.Recorder.iter (fun s -> Stats.Recorder.add sj s) (Sim.Station.sojourns st))
      stations
  end

(* {2 Consistency checking}

   Every checked run is judged once, after the engine drains and the sweep
   has recorded its incomplete ops, from [Run.records]: each checker gets
   its records in recording order, sorts them by the claimed order and
   replays them; the work counters measure how far recording order strayed
   from it. [`No_check] skips verification — for benchmarking raw
   simulator speed; the verdict reports [Unknown]. *)

let spanner_mode = function Spanner.Config.Strict -> `Strict | Spanner.Config.Rss -> `Rss
let gryff_mode = function Gryff.Config.Lin -> `Strict | Gryff.Config.Rsc -> `Rss

(* One checker over the records [feed] adds: its verdict and its (added,
   work, max_displacement) totals. *)
let judge_one ~mode feed =
  let oc = Rss_core.Check_online.create ~mode () in
  feed (Rss_core.Check_online.add oc);
  ( Rss_core.Check_online.result oc,
    ( Rss_core.Check_online.n_added oc,
      Rss_core.Check_online.work oc,
      Rss_core.Check_online.max_displacement oc ) )

(* Gryff record indices grouped by key, keys ascending, recording order
   within a key: a counting sort over key ranks. Keys spanning at most
   [n / 2] values (a run of many ops over few keys) rank by their distance
   from the smallest: no table, and no more than the [n + n / 2] words a
   merge sort of the indices would allocate. Sparser keys rank by their
   place among the sorted distinct keys, found in a hash table. *)
module Key_ranks = Hashtbl.Make (Int)

let by_key (a : Gryff.Cluster.record array) =
  let n = Array.length a and lo = ref max_int and hi = ref min_int in
  Array.iter (fun r -> lo := Int.min !lo r.Gryff.Cluster.g_key; hi := Int.max !hi r.g_key) a;
  let lo = !lo and span = !hi - !lo in
  if n > 0 && span >= 0 && span <= n / 2 then
    snd (Rss_core.Group.by (span + 1) n (fun i -> a.(i).Gryff.Cluster.g_key - lo))
  else begin
    let ranks = Key_ranks.create 64 in
    Array.iter (fun r -> Key_ranks.replace ranks r.Gryff.Cluster.g_key 0) a;
    let keys = Array.make (Key_ranks.length ranks) 0 and m = ref 0 in
    Key_ranks.iter (fun k _ -> keys.(!m) <- k; incr m) ranks;
    Array.sort Int.compare keys;
    Array.iteri (fun i k -> Key_ranks.replace ranks k i) keys;
    snd
      (Rss_core.Group.by (Array.length keys) n (fun i ->
           Key_ranks.find ranks a.(i).Gryff.Cluster.g_key))
  end

(* A Spanner history is judged whole against its mode's witness order, a
   Gryff history per key (carstamps order one key's writes): each key's
   records in recording order, keys ascending, one checker alive at a
   time; a [Fail] names the smallest failing key. The split misses
   cross-key violations such as IRIW (see [Gryff.Cluster]'s offline
   oracle); it stays while perfbench's traced run mirrors it and pins
   the [check.*] counters. *)
let judge ~mode = function
  | Run.Spanner_txns a -> judge_one ~mode (fun add -> Array.iter add a)
  | Run.Gryff_ops a ->
    let by = by_key a in
    let key p = a.(by.(p)).Gryff.Cluster.g_key and n = Array.length by in
    let rec go lo verdict (added, work, disp) =
      if lo = n then (verdict, (added, work, disp))
      else begin
        let k = key lo in
        let hi = ref lo in
        while !hi < n && key !hi = k do incr hi done;
        let key = string_of_int k in
        let v, (a', w', d') =
          judge_one ~mode (fun add ->
              for p = lo to !hi - 1 do add (Gryff.Cluster.witness_txn ~key a.(by.(p))) done)
        in
        let verdict =
          match (verdict, v) with
          | Run.Pass, Run.Fail m -> Run.Fail (Fmt.str "key %d: %s" k m)
          | _ -> verdict
        in
        go !hi verdict (added + a', work + w', Int.max disp d')
      end
    in
    go 0 Run.Pass (0, 0, 0)

(* {2 Unacknowledged operations}

   A write whose acknowledgement a fault swallowed may still be visible, so
   before checking, the driver sweeps it into the history as an incomplete
   op (resp = max_int: no real-time obligations, reads not checked) —
   exactly how complete(α) treats a stopped client. The tracker holds only
   ops not yet acknowledged; the sweep visits them in issue order. *)
module Unacked = struct
  type 'a t = { live : (int, 'a) Hashtbl.t; mutable next : int }

  let create () = { live = Hashtbl.create 64; next = 0 }

  let add t x =
    let id = t.next in
    t.next <- id + 1;
    Hashtbl.add t.live id x;
    id

  let ack t id = Hashtbl.remove t.live id

  let in_issue_order t =
    Hashtbl.fold (fun id x acc -> (id, x) :: acc) t.live []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
end

type pending_rw = {
  pr_proc : int;
  pr_inv : int;
  pr_writes : (int * int) list;
  mutable pr_last_txn : int;  (** latest attempt id; -1 before the first *)
}

type pending_write = {
  pw_proc : int;
  pw_inv : int;
  pw_key : int;
  pw_value : int;
  mutable pw_cs : Gryff.Carstamp.t option;  (** set once propagation starts *)
}

(* {2 Protocol adapters}

   What the driver core needs from one deployment, built over a fresh
   cluster on the run's engine: the primitives each [Env.t] field maps to,
   the client/op vocabulary (ops of kind [kinds.(kind op)] issued with
   unacknowledged-op tracking), the sweep, and the run's accounting. *)
type ('c, 'op) deployment = {
  net : Sim.Net.t;
  tt : Sim.Truetime.t option;
  kinds : string array;
  failover_deadline_us : int option;
      (* the client deadline armed failover implies when [Env.deadline_us]
         names none *)
  flow : Sim.Flow.t;
  stations : Sim.Station.t list;
  set_fanout : Gryff.Protocol.read_fanout -> unit;
  set_tracer : Obs.Trace.t -> unit;
  enable_failover : rng:Sim.Rng.t -> until_us:int -> unit;
  slow : site:int -> factor:int -> unit;
  clear_slow : unit -> unit;
  on_recover : int list -> unit;
  migrate : reshard_spec -> unit;
  witness_mode : Rss_core.Witness.mode;  (* the model its history is judged by *)
  workload : Sim.Rng.t -> unit -> 'op;
  new_client : site:int -> 'c;
  kind : 'op -> int;
  issue : 'c -> 'op -> deadline_us:int option -> (unit -> unit) -> unit;
  sweep : unit -> int;
  counters : unit -> (string * int) list;
  records : unit -> Run.history;
}

let spanner ~config ~n_keys ~theta engine ~rng =
  let cluster = Spanner.Cluster.create engine ~rng config in
  let pending = Unacked.create () in
  {
    net = Spanner.Cluster.net cluster;
    tt = Some (Spanner.Cluster.truetime cluster);
    kinds = [| "ro"; "rw" |];
    (* The fallback deadline exists to settle operations orphaned by a
       coordinator crash, not to bound normal latency — it must sit well
       above the workload's fault-free tail or deadline-aborts amplify load
       into congestion collapse. *)
    failover_deadline_us = Some 10_000_000;
    flow = (Spanner.Cluster.ctx cluster).Spanner.Protocol.flow;
    stations = Spanner.Cluster.stations cluster;
    set_fanout = ignore;
    set_tracer = Spanner.Cluster.set_tracer cluster;
    enable_failover =
      (fun ~rng ~until_us -> Spanner.Cluster.enable_failover cluster ~rng ~until_us ());
    slow = Spanner.Cluster.set_site_slowdown cluster;
    clear_slow = (fun () -> Spanner.Cluster.clear_slowdowns cluster);
    (* When the directory replica's site recovers, its assignment log is
       re-verified and healed from the overlay. *)
    on_recover =
      (fun ss ->
        if List.mem 0 ss then
          ignore (Place.Directory.recover (Spanner.Cluster.directory cluster)));
    migrate =
      (fun spec ->
        Spanner.Cluster.migrate ~no_fence:spec.rs_no_fence cluster ~lo:spec.rs_lo
          ~hi:spec.rs_hi ~dst:spec.rs_dst);
    witness_mode = spanner_mode config.Spanner.Config.mode;
    workload =
      (fun rng ->
        let retwis = Workload.Retwis.create ~rng ~n_keys ~theta in
        fun () -> Workload.Retwis.sample retwis);
    new_client = (fun ~site -> Spanner.Client.create cluster ~site);
    kind = (fun txn -> if Workload.Retwis.is_read_only txn then 0 else 1);
    issue =
      (fun c txn ~deadline_us k ->
        if Workload.Retwis.is_read_only txn then
          Spanner.Client.ro ?deadline_us c ~keys:txn.Workload.Retwis.read_keys
            (fun _ -> k ())
        else begin
          (* The same fresh values Client.rw would draw, kept so an attempt
             whose acknowledgement a fault swallows can be swept. *)
          let writes =
            List.map
              (fun key -> (key, Spanner.Cluster.fresh_value cluster))
              txn.Workload.Retwis.write_keys
          in
          let p =
            {
              pr_proc = Spanner.Client.proc c;
              pr_inv = Sim.Engine.now engine;
              pr_writes = writes;
              pr_last_txn = -1;
            }
          in
          let id = Unacked.add pending p in
          Spanner.Client.rw_kv ?deadline_us c
            ~on_attempt:(fun t -> p.pr_last_txn <- t)
            ~read_keys:txn.Workload.Retwis.read_keys ~writes
            (fun _ ->
              Unacked.ack pending id;
              k ())
        end);
    sweep =
      (fun () ->
        List.fold_left
          (fun n p ->
            if
              p.pr_last_txn >= 0
              && Chaos.Audit.sweep_spanner_txn cluster ~proc:p.pr_proc
                   ~inv:p.pr_inv ~writes:p.pr_writes ~txn:p.pr_last_txn
            then n + 1
            else n)
          0
          (Unacked.in_issue_order pending));
    counters = (fun () -> Spanner.Cluster.counters cluster);
    records = (fun () -> Run.Spanner_txns (Spanner.Cluster.records cluster));
  }

let gryff ~config ~n_keys ~write_ratio ~conflict ~unsafe_no_deps engine ~rng =
  let cluster = Gryff.Cluster.create engine ~rng config in
  let pending = Unacked.create () in
  {
    net = Gryff.Cluster.net cluster;
    tt = None;
    kinds = [| "read"; "write" |];
    failover_deadline_us = None;
    flow = (Gryff.Cluster.ctx cluster).Gryff.Protocol.flow;
    stations = Gryff.Cluster.stations cluster;
    set_fanout = Gryff.Protocol.set_read_fanout (Gryff.Cluster.ctx cluster);
    set_tracer = Gryff.Cluster.set_tracer cluster;
    enable_failover =
      (fun ~rng ~until_us:_ -> Gryff.Cluster.enable_retrans cluster ~rng ());
    slow = Gryff.Cluster.set_site_slowdown cluster;
    clear_slow = (fun () -> Gryff.Cluster.clear_slowdowns cluster);
    (* Gryff keeps no durable stores and has no elastic placement. *)
    on_recover = ignore;
    migrate = ignore;
    witness_mode = gryff_mode config.Gryff.Config.mode;
    workload =
      (fun rng ->
        let ycsb = Workload.Ycsb.create ~rng ~n_keys ~write_ratio ~conflict in
        fun () -> Workload.Ycsb.sample ycsb);
    new_client = (fun ~site -> Gryff.Client.create ~unsafe_no_deps cluster ~site);
    kind = (fun op -> if op.Workload.Ycsb.is_write then 1 else 0);
    issue =
      (fun c op ~deadline_us k ->
        let key = op.Workload.Ycsb.key in
        if op.Workload.Ycsb.is_write then begin
          let value = Gryff.Cluster.fresh_value cluster in
          let p =
            {
              pw_proc = Gryff.Client.proc c;
              pw_inv = Sim.Engine.now engine;
              pw_key = key;
              pw_value = value;
              pw_cs = None;
            }
          in
          let id = Unacked.add pending p in
          Gryff.Client.write ?deadline_us c
            ~on_apply:(fun cs -> p.pw_cs <- Some cs)
            ~key ~value
            (fun _ ->
              Unacked.ack pending id;
              k ())
        end
        else Gryff.Client.read ?deadline_us c ~key (fun _ -> k ()));
    sweep =
      (fun () ->
        List.fold_left
          (fun n p ->
            match p.pw_cs with
            | Some cs ->
              Chaos.Audit.sweep_gryff_write cluster ~proc:p.pw_proc ~inv:p.pw_inv
                ~key:p.pw_key ~value:p.pw_value ~cs;
              n + 1
            | None -> n)
          0
          (Unacked.in_issue_order pending));
    counters = (fun () -> Gryff.Cluster.counters cluster);
    records = (fun () -> Run.Gryff_ops (Gryff.Cluster.records cluster));
  }

(* {2 The driver core}

   One path for every run: build the deployment, apply each [Env.t] field,
   arm the nemesis (network/clock faults, gray nodes, disk damage, live
   migrations), drive the workload through a client model, drain the
   engine, sweep unacknowledged ops and judge the history. *)

type client_model =
  | Closed_loop of int  (* clients *)
  | Partly_open of float  (* session arrivals per second; stay 0.9 *)
  | Slots of { n_slots : int; timeout_us : int }

(* A client session: its current op's kind and invocation time, and
   whether the slots model abandoned it. *)
type 'c session = {
  client : 'c;
  mutable kind : int;
  mutable t0 : int;
  mutable dead : bool;
}

(* [latencies]: [None] records per op kind, [Some name] into one recorder.
   Ops invoked in the first [warmup_s] are executed and checked but not
   recorded. [site_of] places a client model's client ids. [prepare] runs
   right after the cluster is built. *)
let drive ~env ?prepare ~seed ~duration_s ~model ~site_of ~latencies ~warmup_s
    adapter =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  (* Stores register with the ambient control at creation, so it goes in
     before the cluster. *)
  let dctl = Chaos.Audit.install_disk_faults env.Env.disk_faults in
  Fun.protect ~finally:(fun () -> Option.iter Sim.Durable.Faults.retire dctl)
  @@ fun () ->
  let d = adapter engine ~rng in
  Sim.Net.set_batching d.net env.Env.batching;
  Option.iter (fun f -> f engine d.net) prepare;
  Option.iter
    (fun f ->
      Sim.Flow.arm d.flow ~stations:d.stations ~admission:f.fl_admission
        ~drop_expired:f.fl_drop_expired ~hedge_us:f.fl_hedge_us
        ~budget:
          (Option.map
             (fun (capacity, refill_period_us) ->
               Sim.Flow.Budget.create engine ~capacity ~refill_period_us)
             f.fl_budget);
      Option.iter d.set_fanout f.fl_gryff_fanout)
    env.Env.flow;
  let trace = env.Env.trace in
  if Obs.Trace.enabled trace then d.set_tracer trace;
  let until = Sim.Engine.sec duration_s in
  (* A dedicated seeded stream for retry jitter keeps the workload stream
     untouched; failover timers stop past the horizon so the queue drains. *)
  if env.Env.failover then
    d.enable_failover ~rng:(Sim.Rng.make (0xfa11 + seed))
      ~until_us:(until + Sim.Engine.sec 4.0);
  let deadline_us =
    match env.Env.deadline_us with
    | Some _ as dl -> dl
    | None -> if env.Env.failover then d.failover_deadline_us else None
  in
  let faults = ref 0 in
  let quiet_us =
    match env.Env.chaos with
    | None -> 0
    | Some schedule ->
      (* Gray failures live in the deployment's stations and storage damage
         in its durable stores, which the network-level injector cannot
         see — both ride the schedule's events here. *)
      ignore
        (Chaos.Schedule.apply schedule ~engine ~net:d.net ?tt:d.tt ~tracer:trace
           ~on_fault:(fun (ev : Chaos.Schedule.event) ->
             incr faults;
             match (ev.Chaos.Schedule.fault, dctl) with
             | Chaos.Schedule.Slow { site; factor }, _ -> d.slow ~site ~factor
             | Chaos.Schedule.Slow_clear, _ -> d.clear_slow ()
             | Chaos.Schedule.Crash ss, Some ctl ->
               List.iter (Sim.Durable.Faults.crash_site ctl) ss
             | Chaos.Schedule.Recover ss, Some _ -> d.on_recover ss
             | _ -> ())
           ());
      Chaos.Schedule.end_of_faults schedule
  in
  let scrub =
    Chaos.Audit.arm_scrub engine ~tracer:trace ~dctl
      ~disk_faults:env.Env.disk_faults ~duration_s
  in
  let sample = d.workload (Sim.Rng.split rng) in
  List.iter
    (fun spec ->
      Sim.Engine.schedule engine ~kind:"place.reshard"
        ~after:(int_of_float (spec.rs_at *. float_of_int until))
        (fun () -> d.migrate spec))
    env.Env.reshard;
  let recorders =
    match latencies with
    | None -> Array.map (fun _ -> Stats.Recorder.create ()) d.kinds
    | Some _ -> Array.make (Array.length d.kinds) (Stats.Recorder.create ())
  in
  let warmup = Sim.Engine.sec warmup_s in
  (* Op accounting: "post-heal" ops were invoked after the schedule's last
     event, so their completions prove liveness resumed. *)
  let reg = Obs.Metrics.create () in
  let count name = Obs.Metrics.incr (Obs.Metrics.counter reg name) in
  let completed = Obs.Metrics.counter reg "op.completed" in
  let post_heal = Obs.Metrics.counter reg "op.post_heal_completed" in
  let sessions = Hashtbl.create 64 in
  let session client =
    match Hashtbl.find sessions client with
    | s -> s
    | exception Not_found ->
      let client' = d.new_client ~site:(site_of client) in
      let s = { client = client'; kind = 0; t0 = 0; dead = false } in
      Hashtbl.add sessions client s;
      s
  in
  let body ~client k =
    let s = session client in
    let op = sample () in
    let kind = d.kind op in
    let t0 = Sim.Engine.now engine in
    s.kind <- kind;
    s.t0 <- t0;
    d.issue s.client op ~deadline_us (fun () ->
        if not s.dead then begin
          if t0 >= warmup then
            Stats.Recorder.add recorders.(kind) (Sim.Engine.now engine - t0);
          Obs.Metrics.incr completed;
          if t0 >= quiet_us then Obs.Metrics.incr post_heal
        end;
        k ())
  in
  (match model with
  | Closed_loop n_clients ->
    Workload.Client_model.closed_loop engine ~n_clients ~body ~until ()
  | Partly_open arrival_rate_per_sec ->
    ignore
      (Workload.Client_model.partly_open engine ~rng:(Sim.Rng.split rng)
         ~arrival_rate_per_sec ~stay:0.9 ~body ~until ())
  | Slots { n_slots; timeout_us } ->
    Workload.Client_model.slots engine ~n_slots ~timeout_us ~body ~until
      ~on_timeout:(fun ~client ->
        let s = Hashtbl.find sessions client in
        s.dead <- true;
        count "op.timed_out";
        count ("op.timed_out." ^ d.kinds.(s.kind));
        if s.t0 >= quiet_us then count "op.post_heal_timed_out")
      ());
  Sim.Engine.run ~max_events:600_000_000 engine;
  add reg "op.unacked_commits_swept" (d.sweep ());
  List.iter (fun (name, v) -> add reg name v) (d.counters ());
  flow_metrics reg ~armed:(env.Env.flow <> None) ~stations:d.stations d.flow;
  net_metrics reg ~faults:!faults d.net;
  durable_metrics reg ~dctl ~scrub;
  let records = d.records () in
  add reg "op.history_records"
    (match records with
    | Run.Spanner_txns a -> Array.length a
    | Run.Gryff_ops a -> Array.length a);
  let t0_check = Sys.time () in
  let check =
    match env.Env.check with
    | `Online ->
      let verdict, (added, work, max_displacement) =
        judge ~mode:d.witness_mode records
      in
      add reg "check.added" added;
      add reg "check.work" work;
      add reg "check.max_displacement" max_displacement;
      verdict
    | `No_check -> Run.Unknown "checking disabled"
  in
  Obs.Metrics.set_gauge reg "check.finish_s" (Sys.time () -. t0_check);
  {
    Run.latencies =
      (match latencies with
      | Some name -> [ (name, recorders.(0)) ]
      | None ->
        Array.to_list (Array.mapi (fun i name -> (name, recorders.(i))) d.kinds));
    metrics = Obs.Metrics.snapshot reg;
    check;
    records;
    duration_us = Sim.Engine.now engine;
  }

(* {2 The paper's experiments} *)

(* The single-DC drivers report saturation gauges over their measured
   window: completions per second, the median, and (Spanner) messages per
   committed transaction. *)
let with_gauges (r : Run.t) gauges =
  let m = r.Run.metrics in
  let gauges = List.sort compare (gauges @ m.Obs.Metrics.gauges) in
  { r with Run.metrics = { m with Obs.Metrics.gauges } }

let saturation_gauges r ~name ~duration_s =
  let lat = Run.latency r name in
  let measured_us =
    Sim.Engine.sec duration_s - Sim.Engine.sec (duration_s /. 5.0)
  in
  [
    ( "throughput_tps",
      Stats.Summary.throughput ~count:(Stats.Recorder.count lat)
        ~duration_us:measured_us );
    ( "p50_ms",
      Option.value (Stats.Recorder.percentile_ms_opt lat 50.0) ~default:Float.nan );
  ]

(* The paper's §6.1 wide-area Retwis experiment: partly-open clients
   (sessions at [arrival_rate_per_sec], stay probability 0.9, zero think
   time, a fresh t_min per session), Zipfian keys. *)
let spanner_wan ?(config = None) ?(env = Env.default) ~mode ~theta ~n_keys
    ~arrival_rate_per_sec ~duration_s ~seed () =
  let config =
    match config with Some c -> c | None -> Spanner.Config.wan3 ~mode () in
  let sites = config.Spanner.Config.client_sites in
  drive ~env ~seed ~duration_s ~model:(Partly_open arrival_rate_per_sec)
    ~site_of:(fun s -> sites.(s mod Array.length sites))
    ~latencies:None ~warmup_s:(duration_s /. 10.0)
    (spanner ~config ~n_keys ~theta)

(* The §6.2 single-data-center saturation experiment: closed-loop clients,
   uniform keys, ε = 0, per-message CPU cost at shard leaders. *)
let spanner_dc ?(env = Env.default) ~mode ~n_shards ~service_time_us ~n_clients
    ~n_keys ~duration_s ~seed () =
  let config = Spanner.Config.single_dc ~mode ~n_shards ~service_time_us () in
  let r =
    drive ~env ~seed ~duration_s ~model:(Closed_loop n_clients)
      ~site_of:(fun _ -> 0) ~latencies:(Some "txn") ~warmup_s:(duration_s /. 5.0)
      (spanner ~config ~n_keys ~theta:0.0)
  in
  let txns = Run.counter r "rw.committed" + Run.counter r "ro.count" in
  with_gauges r
    (( "msgs_per_txn",
       if txns = 0 then 0.0
       else float_of_int (Run.counter r "net.messages") /. float_of_int txns )
    :: saturation_gauges r ~name:"txn" ~duration_s)

(* The §7.2 YCSB experiment: 16 closed-loop clients spread over five
   regions, tunable conflict percentage and write ratio. [client_sites]
   restricts where clients run (e.g. off a gray node); the default spreads
   them over all five regions. *)
let gryff_wan ?(n_clients = 16) ?(client_sites = [| 0; 1; 2; 3; 4 |])
    ?(env = Env.default) ~mode ~conflict ~write_ratio ~n_keys ~duration_s ~seed
    () =
  drive ~env ~seed ~duration_s ~model:(Closed_loop n_clients)
    ~site_of:(fun i -> client_sites.(i mod Array.length client_sites))
    ~latencies:None ~warmup_s:(duration_s /. 10.0)
    (gryff ~config:(Gryff.Config.wan5 ~mode ()) ~n_keys ~write_ratio ~conflict
       ~unsafe_no_deps:false)

(* The §7.4 overhead experiment: in-DC latencies, per-message CPU cost. *)
let gryff_dc ?(env = Env.default) ~mode ~service_time_us ~n_clients ~conflict
    ~write_ratio ~n_keys ~duration_s ~seed () =
  let r =
    drive ~env ~seed ~duration_s ~model:(Closed_loop n_clients)
      ~site_of:(fun i -> i mod 5) ~latencies:(Some "op")
      ~warmup_s:(duration_s /. 5.0)
      (gryff
         ~config:(Gryff.Config.single_dc ~mode ~service_time_us ())
         ~n_keys ~write_ratio ~conflict ~unsafe_no_deps:false)
  in
  with_gauges r (saturation_gauges r ~name:"op" ~duration_s)

(* {2 Chaos audits} *)

let audit ?(env = Env.default) ?prepare ?config ?client_sites ?n_slots ?n_keys
    ?(timeout_us = 2_000_000) ?(conflict = 0.1) ?(write_ratio = 0.3)
    ?(unsafe_no_deps = false) protocol ~duration_s ~seed () =
  let n_keys = Option.value n_keys ~default:(audit_keys protocol) in
  (* Armed failover puts a deadline on every op, just inside the slot
     timeout, so a coordinator crash settles the op before its session is
     abandoned. *)
  let env =
    if env.Env.failover && env.Env.deadline_us = None then
      { env with Env.deadline_us = Some (timeout_us - 200_000) }
    else env
  in
  let run ~n_slots ~sites adapter =
    drive ~env ?prepare ~seed ~duration_s
      ~model:(Slots { n_slots; timeout_us })
      ~site_of:(fun s -> sites.(s mod n_slots mod Array.length sites))
      ~latencies:(Some "ops") ~warmup_s:0.0 adapter
  in
  match Chaos.Audit.deployment protocol with
  | Chaos.Audit.Spanner_wan default ->
    let config = Option.value config ~default in
    run
      ~n_slots:(Option.value n_slots ~default:12)
      ~sites:config.Spanner.Config.client_sites
      (spanner ~config ~n_keys ~theta:0.5)
  | Chaos.Audit.Gryff_wan config ->
    run
      ~n_slots:(Option.value n_slots ~default:10)
      ~sites:
        (match client_sites with
        | Some a -> a
        | None -> Array.init config.Gryff.Config.n_replicas Fun.id)
      (gryff ~config ~n_keys ~write_ratio ~conflict ~unsafe_no_deps)

let audit_trace (r : Run.t) =
  match r.Run.records with
  | Run.Spanner_txns a -> Chaos.Audit.spanner_trace a
  | Run.Gryff_ops a -> Chaos.Audit.gryff_trace a

(* The corrupted history goes through the same judge [drive] uses, so the
   control tests the checker that actually judges runs. *)
let stale_control protocol (r : Run.t) =
  let verdict ~mode h = fst (judge ~mode h) in
  match (r.Run.records, Chaos.Audit.deployment protocol) with
  | Run.Spanner_txns a, Chaos.Audit.Spanner_wan c ->
    let mode = spanner_mode c.Spanner.Config.mode in
    Chaos.Audit.spanner_stale_control
      ~check:(fun a -> verdict ~mode (Run.Spanner_txns a)) a
  | Run.Gryff_ops a, Chaos.Audit.Gryff_wan c ->
    let mode = gryff_mode c.Gryff.Config.mode in
    Chaos.Audit.gryff_stale_control ~check:(fun a -> verdict ~mode (Run.Gryff_ops a)) a
  | _ -> invalid_arg "Harness.stale_control: not a run of this protocol"

let liveness_ok ?(min_post_quiet = 1) r =
  Run.counter r "op.post_heal_completed" >= min_post_quiet

let print_verdict protocol r =
  match r.Run.check with
  | Run.Pass ->
    Fmt.pr "history: verified (%s)@." (Chaos.Audit.model_name protocol)
  | Run.Fail m -> Fmt.pr "history: VIOLATION — %s@." m
  | Run.Unknown m -> Fmt.pr "history: verdict UNKNOWN — %s@." m

let print_audit protocol r =
  Fmt.pr "chaos audit: %s — model: %s@." (Chaos.Audit.protocol_name protocol)
    (Chaos.Audit.model_name protocol);
  Run.print_latencies ~header:"chaos audit latency (ms)" r;
  Run.print_metrics ~header:"chaos audit" r;
  print_verdict protocol r;
  Fmt.pr "liveness: %s (%d ops completed after heal)@."
    (if liveness_ok r then "ok" else "STALLED")
    (Run.counter r "op.post_heal_completed");
  let c = Run.counter r in
  if c "durable.fault.crashes" > 0 || c "durable.repair.unrepaired" > 0 then
    Fmt.pr
      "storage: %d crash-damage events — %d torn-tail repairs, %d quarantined \
       (%d healed by peer transfer, %d place re-persists), %d UNREPAIRED@."
      (c "durable.fault.crashes") (c "durable.repair.torn")
      (c "durable.repair.quarantined") (c "durable.repair.peer")
      (c "durable.repair.place") (c "durable.repair.unrepaired")
