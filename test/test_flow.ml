(* Overload-robustness guarantees: (1) Station.amortized cost accounting is
   exact — a drained batch charges the station head-cost plus quarter-cost
   per follower, and arrival sampling observes the queue transient; (2)
   admission control sheds exactly past the installed bounds and the typed
   pushback carries a drainable backoff estimate; (3) the retry budget is a
   strict token bucket — dry means fast-fail, refill is lazy and exact —
   charged only for re-offers that are sent, and [Env.with_flow] rejects
   hedging policies that cannot work; (4) a slowdown factor scales busy
   time linearly; (5) the whole flow layer with every knob off reproduces
   the golden seeded digests byte-for-byte, and with every knob firing
   reproduces its own pinned digests; (6) hedged reads complete quorums
   under a gray-failed replica; (7) Flow decides every client re-send,
   NACK re-offer, Rpc timeout re-attempt and failover RO re-issue alike,
   and a Gryff leg's sends are capped across all of them; (8) Spanner's
   terminate, an outcome query rather than a re-offer, keeps asking past
   the op's expiry; (9) a wounded RW whose backoff would start past its
   expiry is abandoned by Flow, with its locks released. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Amortized batch accounting (QCheck)                                 *)
(* ------------------------------------------------------------------ *)

(* An envelope of [n] members with head cost [full] must charge the
   station exactly [full + (n-1) * ceil(full/4)]: the head pays the parse
   and dispatch, every follower rides the warm path at a quarter, rounded
   up so a nonzero head never yields free followers. The queue-depth
   recorder must observe the submit transient 0, 1, ..., n-1. *)
let envelope_arb =
  QCheck.make
    ~print:(fun (full, n) -> Printf.sprintf "full=%d n=%d" full n)
    QCheck.Gen.(pair (int_range 1 500) (int_range 1 48))

let prop_amortized_accounting =
  QCheck.Test.make ~name:"amortized envelope charges head + quarter-followers"
    ~count:300 envelope_arb (fun (full, n) ->
      let quarter = (full + 3) / 4 in
      (* The formula itself, member by member. *)
      if Sim.Station.amortized ~full 0 <> full then
        QCheck.Test.fail_reportf "head must pay full cost %d" full;
      for idx = 1 to n - 1 do
        if Sim.Station.amortized ~full idx <> quarter then
          QCheck.Test.fail_reportf "follower %d must pay %d" idx quarter
      done;
      (* And through a real station: submit the envelope, drain, reconcile
         busy time against the closed form. *)
      let e = Sim.Engine.create () in
      let st = Sim.Station.create e ~service_time_us:full in
      Sim.Station.set_observe st true;
      let served = ref 0 in
      for idx = 0 to n - 1 do
        Sim.Station.submit ~cost:(Sim.Station.amortized ~full idx) st
          (fun () -> incr served)
      done;
      Sim.Engine.run e;
      let expect = full + ((n - 1) * quarter) in
      if Sim.Station.busy_us st <> expect then
        QCheck.Test.fail_reportf "busy %d, want %d" (Sim.Station.busy_us st)
          expect;
      if !served <> n then QCheck.Test.fail_reportf "served %d of %d" !served n;
      (* Arrival sampling saw the transient: depth i at the i-th submit. *)
      let depths = Sim.Station.queue_depths st in
      Stats.Recorder.count depths = n
      && Stats.Recorder.min depths = 0
      && Stats.Recorder.max depths = n - 1)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_past_queue_bound () =
  let e = Sim.Engine.create () in
  let st = Sim.Station.create e ~service_time_us:100 in
  Sim.Station.set_limits st (Some { Sim.Station.max_queue = 3; max_sojourn_us = 1_000_000 });
  let admitted = ref 0 and shed = ref 0 in
  for _ = 1 to 8 do
    match Sim.Station.try_submit st (fun () -> ()) with
    | Sim.Station.Admitted -> incr admitted
    | Sim.Station.Shed pb ->
      incr shed;
      (* The suggested backoff is the admitted backlog: 3 jobs deep. *)
      check bool "retry_after covers backlog" true
        (pb.Sim.Station.retry_after_us >= 100)
  done;
  check int "bound admits" 3 !admitted;
  check int "rest shed" 5 !shed;
  check int "shed counter" 5 (Sim.Station.shed st);
  Sim.Engine.run e;
  (* Shed work never ran: only the admitted jobs were charged. *)
  check int "busy = admitted only" 300 (Sim.Station.busy_us st)

let test_admission_sheds_past_sojourn_bound () =
  let e = Sim.Engine.create () in
  let st = Sim.Station.create e ~service_time_us:400 in
  Sim.Station.set_limits st
    (Some { Sim.Station.max_queue = 1000; max_sojourn_us = 1_000 });
  let verdicts =
    List.init 5 (fun _ -> Sim.Station.try_submit st (fun () -> ()))
  in
  (* Backlogs at arrival: 0, 400, 800 admitted; 1200 exceeds the bound. *)
  let admitted =
    List.length (List.filter (fun a -> a = Sim.Station.Admitted) verdicts)
  in
  check int "sojourn bound admits" 3 admitted;
  Sim.Engine.run e

let test_no_limits_never_sheds () =
  let e = Sim.Engine.create () in
  let st = Sim.Station.create e ~service_time_us:50 in
  for _ = 1 to 100 do
    match Sim.Station.try_submit st (fun () -> ()) with
    | Sim.Station.Admitted -> ()
    | Sim.Station.Shed _ -> Alcotest.fail "shed without limits"
  done;
  Sim.Engine.run e;
  check int "all served" 5_000 (Sim.Station.busy_us st)

(* ------------------------------------------------------------------ *)
(* Retry budget                                                        *)
(* ------------------------------------------------------------------ *)

(* A flow on a one-site network with only [budget] (and, if asked, expiry
   drops) armed. *)
let budget_flow ?(drop_expired = false) ~capacity ~refill_period_us () =
  let e = Sim.Engine.create () in
  let net = Sim.Net.create e ~rng:(Sim.Rng.make 1) ~rtt_ms:[| [| 0.1 |] |] () in
  let flow = Sim.Flow.create net in
  let b = Sim.Flow.Budget.create e ~capacity ~refill_period_us in
  Sim.Flow.arm flow ~stations:[] ~admission:None ~drop_expired ~hedge_us:0
    ~budget:(Some b);
  (e, flow, b)

let abandoned flow = (Sim.Flow.stats flow).Sim.Flow.abandoned

let test_budget_fast_fails_when_dry () =
  let e, flow, b = budget_flow ~capacity:4 ~refill_period_us:1_000 () in
  let ask () = Sim.Flow.may_retry flow ~after_us:0 () in
  let takes = List.init 10 (fun _ -> ask ()) in
  check int "starts full" 4
    (List.length (List.filter (fun x -> x) takes));
  check int "taken" 4 (Sim.Flow.Budget.taken b);
  check int "denied" 6 (Sim.Flow.Budget.denied b);
  check int "denials abandon" 6 (abandoned flow);
  check int "dry" 0 (Sim.Flow.Budget.tokens b);
  (* Lazy refill: one token per period, capped at capacity. *)
  Sim.Engine.schedule e ~after:2_500 (fun () ->
      check int "two periods, two tokens" 2 (Sim.Flow.Budget.tokens b);
      check bool "grants again" true (ask ()));
  Sim.Engine.schedule e ~after:50_000 (fun () ->
      check int "refill caps at capacity" 4 (Sim.Flow.Budget.tokens b));
  Sim.Engine.run e

(* A re-offer that will never be sent — it would start past the deadline,
   or the work already used its sends — must leave the budget untouched:
   the token pays for a retry, not for the decision. *)
let test_retry_charges_only_sent_reoffers () =
  let e, flow, b =
    budget_flow ~drop_expired:true ~capacity:4 ~refill_period_us:1_000 ()
  in
  let ran = ref 0 in
  let k () = incr ran in
  Sim.Flow.retry flow ~expires:500 ~after_us:800 k;
  check int "late: no token taken" 0 (Sim.Flow.Budget.taken b);
  check int "late: no denial" 0 (Sim.Flow.Budget.denied b);
  check int "late: abandoned" 1 (abandoned flow);
  Sim.Flow.retry flow ~sends:(ref 8) ~after_us:100 k;
  check int "capped: no token taken" 0 (Sim.Flow.Budget.taken b);
  check int "capped: abandoned" 2 (abandoned flow);
  let sends = ref 7 in
  Sim.Flow.retry flow ~expires:500 ~sends ~after_us:100 k;
  check int "sent: one token" 1 (Sim.Flow.Budget.taken b);
  check int "sent: counted at once" 8 !sends;
  Sim.Engine.run e;
  check int "only the sent re-offer ran" 1 !ran;
  check int "sent: not abandoned" 2 (abandoned flow)

(* ------------------------------------------------------------------ *)
(* Timeout re-attempts ask Flow                                        *)
(* ------------------------------------------------------------------ *)

(* A call whose attempts are never answered, on a 1 ms timeout; returns
   the attempt numbers that ran and the result. *)
let unanswered_call e flow ?expires () =
  let rpc =
    Sim.Rpc.create e ~rng:(Sim.Rng.make 5) ~timeout_us:1_000 ~max_attempts:8 ()
  in
  let attempts = ref [] and result = ref `Pending in
  Sim.Rpc.call ~flow ?expires rpc
    ~attempt:(fun ~attempt ~ok:_ -> attempts := attempt :: !attempts)
    ~on_result:(fun r ->
      result := match r with Some () -> `Reply | None -> `Settled_none);
  Sim.Engine.run e;
  (rpc, List.rev !attempts, !result)

(* The first re-attempt would start at the op's expiry: it is refused
   before it reaches the budget, so the call settles with no second
   attempt, one abandonment and no token. *)
let test_rpc_reattempt_past_deadline () =
  let e, flow, b =
    budget_flow ~drop_expired:true ~capacity:4 ~refill_period_us:1_000 ()
  in
  let rpc, attempts, result = unanswered_call e flow ~expires:1_000 () in
  check (Alcotest.list int) "only the first attempt ran" [ 1 ] attempts;
  check bool "settled with None" true (result = `Settled_none);
  check int "abandoned once" 1 (abandoned flow);
  check int "no token taken" 0 (Sim.Flow.Budget.taken b);
  check int "no denial" 0 (Sim.Flow.Budget.denied b);
  check int "no retry" 0 (Sim.Rpc.retries rpc);
  check int "not exhausted" 0 (Sim.Rpc.exhausted rpc)

(* One token, no refill within the run: the first re-attempt spends it,
   the second is denied and settles the call. *)
let test_rpc_reattempt_denied_by_dry_budget () =
  let e, flow, b =
    budget_flow ~capacity:1 ~refill_period_us:1_000_000_000 ()
  in
  let rpc, attempts, result = unanswered_call e flow () in
  check (Alcotest.list int) "one re-attempt ran" [ 1; 2 ] attempts;
  check bool "settled with None" true (result = `Settled_none);
  check int "one token taken" 1 (Sim.Flow.Budget.taken b);
  check int "one denial" 1 (Sim.Flow.Budget.denied b);
  check int "denial abandons" 1 (abandoned flow);
  check int "one retry" 1 (Sim.Rpc.retries rpc);
  check int "not exhausted" 0 (Sim.Rpc.exhausted rpc)

(* One read against a Gryff cluster whose replica 0 sheds every client
   leg with a ~200 ms pushback, so the leg to replica 0 is re-offered
   after NACKs and re-sent after 300 ms retransmission timeouts, the two
   interleaved. Together they may reach the replica only Flow.max_sends
   times; before the count was shared, each Rpc attempt started its own
   count of 8. *)
let test_gryff_leg_send_cap () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 3 in
  let config =
    Gryff.Config.single_dc ~mode:Gryff.Config.Rsc ~service_time_us:10 ()
  in
  let cluster = Gryff.Cluster.create engine ~rng config in
  Gryff.Cluster.enable_retrans cluster ~rng:(Sim.Rng.make 4) ();
  let victim = List.hd (Gryff.Cluster.stations cluster) in
  let ctx = Gryff.Cluster.ctx cluster in
  Sim.Flow.arm ctx.Gryff.Protocol.flow ~stations:[ victim ]
    ~admission:(Some { Sim.Station.max_queue = 1_000_000; max_sojourn_us = 100_000 })
    ~drop_expired:false ~hedge_us:0 ~budget:None;
  (* Keep a steady ~200 ms backlog on the victim for 15 s: past every
     attempt the retransmission helper could make. *)
  let background = ref 1 in
  Sim.Station.submit ~cost:200_000 victim ignore;
  let rec feed () =
    if Sim.Engine.now engine < Sim.Engine.sec 15.0 then begin
      incr background;
      Sim.Station.submit ~cost:1_000 victim ignore;
      Sim.Engine.schedule engine ~after:1_000 feed
    end
  in
  feed ();
  let client = Gryff.Client.create cluster ~site:1 in
  let read_done = ref false in
  Gryff.Client.read client ~key:0 (fun _ -> read_done := true);
  Sim.Engine.run engine;
  let rs = Gryff.Cluster.retrans_stats cluster in
  check bool "the read completed from the other replicas" true !read_done;
  check bool "the leg was re-offered after NACKs" true
    (Sim.Station.shed victim > 2);
  check bool "and re-sent after a timeout" true
    (rs.Gryff.Cluster.rpc_retries > 0);
  check bool "at most max_sends arrivals" true
    (Sim.Station.shed victim <= Sim.Flow.max_sends);
  check int "no leg was admitted" !background (Sim.Station.jobs victim)

(* With failover armed, a Spanner RO that outlives its deadline re-issues
   itself whole, and each re-issue after the first asks Flow. Here the
   expiry is 1 ms away, so the remote shards NACK the first issue's legs
   as expired (one abandonment) and the re-issue due at the expiry is
   refused (another); none of the other 24 re-issues is sent. *)
let test_spanner_ro_reissue_asks_flow () =
  let engine = Sim.Engine.create () in
  let config = Spanner.Config.wan3 ~mode:Spanner.Config.Rss () in
  let cluster = Spanner.Cluster.create engine ~rng:(Sim.Rng.make 9) config in
  Spanner.Cluster.enable_failover cluster ~rng:(Sim.Rng.make 10)
    ~until_us:(Sim.Engine.sec 1.0) ();
  Sim.Flow.arm (Spanner.Cluster.ctx cluster).Spanner.Protocol.flow
    ~stations:[] ~admission:None ~drop_expired:true ~hedge_us:0 ~budget:None;
  let client = Spanner.Client.create cluster ~site:0 in
  let completed = ref false in
  Spanner.Client.ro ~deadline_us:1_000 client ~keys:(List.init 12 Fun.id)
    (fun _ -> completed := true);
  Sim.Engine.run engine;
  let fs = Spanner.Cluster.flow_stats cluster in
  check bool "the RO never completed" false !completed;
  check bool "expired legs" true (fs.Spanner.Cluster.expired > 0);
  check int "abandoned: the first issue and the refused re-issue" 2
    fs.Spanner.Cluster.abandoned

(* Spanner's terminate asks for the outcome of a commit already sent, so no
   deadline may cut its re-attempts short. Here the coordinator's commit
   record is slow to replicate: the terminate query at the client's
   deadline finds it in flight ([`Pending], no reply), and only a later
   re-attempt, after the op's expiry, learns the commit. Had the client
   given up instead, its abort release would have reached the participants
   before the commit and dropped their prepared writes. *)
let test_spanner_terminate_outlives_expiry () =
  let engine = Sim.Engine.create () in
  let config = Spanner.Config.wan3 ~mode:Spanner.Config.Rss () in
  let cluster = Spanner.Cluster.create engine ~rng:(Sim.Rng.make 9) config in
  (* A lease far above the slow link keeps shard 1's leader in place. *)
  Spanner.Cluster.enable_failover cluster ~rng:(Sim.Rng.make 10)
    ~config:
      { Replication.Group.default_failover with lease_us = Sim.Engine.sec 10.0 }
    ~until_us:(Sim.Engine.sec 3.0) ();
  let ctx = Spanner.Cluster.ctx cluster in
  Sim.Flow.arm ctx.Spanner.Protocol.flow ~stations:[] ~admission:None
    ~drop_expired:true ~hedge_us:0 ~budget:None;
  let net = Spanner.Cluster.net cluster in
  let client = Spanner.Client.create cluster ~site:0 in
  let first = ref None and committed = ref false in
  Spanner.Client.rw_kv client ~deadline_us:400_000
    ~on_attempt:(fun txn -> if !first = None then first := Some txn)
    ~read_keys:[] ~writes:[ (0, 100); (1, 101); (2, 102) ]
    (fun _ -> committed := true);
  (* Slow every link out of site 1 once the first attempt has prepared. *)
  Sim.Engine.schedule engine ~after:150_000 (fun () ->
      List.iter
        (fun dst -> Sim.Net.set_extra_delay net ~src:1 ~dst 700_000)
        [ 0; 2 ]);
  (* Bounded: a client that gives up on terminate re-issues the
     transaction, and every re-issue meets the same slow link. *)
  Sim.Engine.run ~until:(Sim.Engine.sec 10.0) engine;
  let txn = Option.get !first in
  check bool "the op committed" true !committed;
  check int "one terminate query" 1 ctx.Spanner.Protocol.n_terminates;
  check int "it learned the commit" 1 ctx.Spanner.Protocol.n_terminate_commits;
  (* Key [k] lives on shard [k]: every shard decided the first attempt
     committed and applied its write. *)
  Array.iteri
    (fun k sh ->
      check bool
        (Printf.sprintf "shard %d committed the first attempt" k)
        true
        (match Spanner.Shard.decided sh txn with
        | Some (Spanner.Types.Committed _, _) -> true
        | Some (Spanner.Types.Aborted, _) | None -> false);
      check (Alcotest.option int)
        (Printf.sprintf "shard %d applied its write" k)
        (Some (100 + k))
        (Option.map
           (fun (v : Spanner.Types.version) ->
             if v.Spanner.Types.writer = txn then v.Spanner.Types.value else -1)
           (Spanner.Shard.read_version_at sh ~key:k ~ts:max_int)))
    ctx.Spanner.Protocol.shards

(* A wound-wait abort retries after a backoff of at least 10 ms, so with
   expiry drops armed and 5 ms to live, the younger of two RWs on one key
   is wounded and Flow refuses its retry: one abandonment, no second
   attempt, no leg dropped as expired — and no lock left behind. *)
let test_spanner_wounded_rw_past_expiry () =
  let engine = Sim.Engine.create () in
  let config =
    Spanner.Config.single_dc ~mode:Spanner.Config.Rss ~n_shards:2
      ~service_time_us:50 ()
  in
  let cluster = Spanner.Cluster.create engine ~rng:(Sim.Rng.make 3) config in
  let ctx = Spanner.Cluster.ctx cluster in
  Sim.Flow.arm ctx.Spanner.Protocol.flow ~stations:[] ~admission:None
    ~drop_expired:true ~hedge_us:0 ~budget:None;
  let older = Spanner.Client.create cluster ~site:0 in
  let younger = Spanner.Client.create cluster ~site:0 in
  let older_done = ref false and younger_done = ref false in
  let attempts = ref [] in
  Spanner.Client.rw_kv older ~read_keys:[ 0 ] ~writes:[ (0, 100) ] (fun _ ->
      older_done := true);
  Spanner.Client.rw_kv younger ~deadline_us:5_000
    ~on_attempt:(fun txn -> attempts := txn :: !attempts)
    ~read_keys:[ 0 ] ~writes:[ (0, 200) ]
    (fun _ -> younger_done := true);
  Sim.Engine.run engine;
  let fs = Spanner.Cluster.flow_stats cluster in
  check bool "the older RW committed" true !older_done;
  check bool "the wounded RW never completed" false !younger_done;
  check int "one attempt" 1 (List.length !attempts);
  check int "abandoned once" 1 fs.Spanner.Cluster.abandoned;
  check int "by Flow, not by an expired leg" 0 fs.Spanner.Cluster.expired;
  let txn = List.hd !attempts in
  Array.iteri
    (fun i sh ->
      let locks = sh.Spanner.Shard.locks in
      check bool
        (Printf.sprintf "shard %d: the wounded RW holds nothing" i)
        false
        (Spanner.Locks.holds_read locks ~key:0 ~txn
        || Spanner.Locks.holds_write locks ~key:0 ~txn);
      check bool
        (Printf.sprintf "shard %d: no lock held or queued" i)
        false
        (Spanner.Locks.any_busy_in locks ~lo:0 ~hi:2))
    ctx.Spanner.Protocol.shards

let test_with_flow_validates () =
  let env f = ignore Harness.Env.(default |> with_flow (Some f)) in
  Alcotest.check_raises "negative hedge delay"
    (Invalid_argument "Harness.Env.with_flow: hedge delay must be non-negative")
    (fun () -> env { Harness.flow_default with Harness.fl_hedge_us = -1 });
  Alcotest.check_raises "Hedged fan-out without a hedge delay"
    (Invalid_argument "Harness.Env.with_flow: Hedged fan-out needs a hedge delay")
    (fun () ->
      env
        {
          Harness.flow_default with
          Harness.fl_gryff_fanout = Some Gryff.Protocol.Hedged;
        });
  env
    {
      Harness.flow_default with
      Harness.fl_gryff_fanout = Some Gryff.Protocol.Hedged;
      fl_hedge_us = 1_000;
    }

(* ------------------------------------------------------------------ *)
(* Gray-failure slowdown                                               *)
(* ------------------------------------------------------------------ *)

let test_slowdown_scales_service () =
  let e = Sim.Engine.create () in
  let st = Sim.Station.create e ~service_time_us:10 in
  Sim.Station.submit st (fun () -> ());
  Sim.Station.set_slowdown st 7;
  Sim.Station.submit st (fun () -> ());
  Sim.Station.set_slowdown st 1;
  Sim.Station.submit st (fun () -> ());
  Sim.Engine.run e;
  check int "10 + 70 + 10" 90 (Sim.Station.busy_us st);
  Alcotest.check_raises "factor must be >= 1"
    (Invalid_argument "Station.set_slowdown: factor must be >= 1") (fun () ->
      Sim.Station.set_slowdown st 0)

(* ------------------------------------------------------------------ *)
(* Flow layer off is byte-identical                                    *)
(* ------------------------------------------------------------------ *)

(* The same golden digests as test_scale and test_batch, reached with the
   flow policy record *installed but every knob off* — pinning that arming
   the layer without limits, deadlines, hedging or budget draws no
   randomness and schedules no events. *)

let flow_off_env =
  Harness.Env.(
    default |> with_check `No_check |> with_flow (Some Harness.flow_default))

let digest_gryff ~env () =
  let r =
    Harness.gryff_wan ~env ~n_clients:8 ~mode:Gryff.Config.Rsc ~conflict:0.2
      ~write_ratio:0.4 ~n_keys:500 ~duration_s:2.0 ~seed:13 ()
  in
  let b = Buffer.create 65536 in
  (match r.Harness.Run.records with
  | Harness.Run.Gryff_ops a ->
    Array.iter
      (fun (g : Gryff.Cluster.record) ->
        Buffer.add_string b
          (Printf.sprintf "p%d %s k%d o%s w%s cs%d.%d.%d i%d r%d\n"
             g.Gryff.Cluster.g_proc
             (match g.Gryff.Cluster.g_kind with
             | Gryff.Cluster.Read -> "rd"
             | Gryff.Cluster.Write -> "wr"
             | Gryff.Cluster.Rmw -> "rmw")
             g.Gryff.Cluster.g_key
             (match g.Gryff.Cluster.g_observed with
             | None -> "-"
             | Some v -> string_of_int v)
             (match g.Gryff.Cluster.g_written with
             | None -> "-"
             | Some v -> string_of_int v)
             g.Gryff.Cluster.g_cs.Gryff.Carstamp.ts
             g.Gryff.Cluster.g_cs.Gryff.Carstamp.cid
             g.Gryff.Cluster.g_cs.Gryff.Carstamp.rmwc g.Gryff.Cluster.g_inv
             g.Gryff.Cluster.g_resp))
      a
  | Harness.Run.Spanner_txns _ -> assert false);
  Buffer.add_string b (Printf.sprintf "duration=%d\n" r.Harness.Run.duration_us);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_flow_off_is_byte_identical () =
  check string "gryff digest with flow armed but every knob off"
    "6600a5907cf2b98b5e72f80ff9a2ea42"
    (digest_gryff ~env:flow_off_env ())

(* ------------------------------------------------------------------ *)
(* Flow layer armed: pinned digests                                    *)
(* ------------------------------------------------------------------ *)

(* Two runs with every protection firing, pinned by digest so a refactor
   of the flow layer cannot drift silently: the digest covers the
   canonical history, every flow.* counter and the drain time. The Spanner
   run is the overload suite's protected ramp (bounded queues, expiry
   drops, a retry budget, a 10 ms deadline) past the knee of a slower
   single-DC deployment, plus hedged ROs. The Gryff run is a single-DC
   cluster with one replica slowed 20x mid-run, hedged bare-quorum reads,
   bounded queues, expiry drops and a small budget. *)

let flow_counters =
  [
    "flow.expired"; "flow.shed"; "flow.abandoned"; "flow.hedges";
    "flow.hedge_wins"; "flow.budget.taken"; "flow.budget.denied";
  ]

let armed_digest r =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Harness.audit_trace r);
  List.iter
    (fun name ->
      Buffer.add_string b
        (Printf.sprintf "%s=%d\n" name (Harness.Run.counter r name)))
    flow_counters;
  Buffer.add_string b (Printf.sprintf "duration=%d\n" r.Harness.Run.duration_us);
  Digest.to_hex (Digest.string (Buffer.contents b))

let armed_spanner_run () =
  let env =
    Harness.Env.(
      default |> with_check `No_check
      |> with_deadline_us (Some 10_000)
      |> with_flow
           (Some
              {
                Harness.flow_default with
                Harness.fl_admission =
                  Some { Sim.Station.max_queue = 32; max_sojourn_us = 3_000 };
                fl_drop_expired = true;
                fl_hedge_us = 4_000;
                fl_budget = Some (16, 2_000);
              }))
  in
  Harness.spanner_wan
    ~config:
      (Some
         (Spanner.Config.single_dc ~mode:Spanner.Config.Rss ~n_shards:4
            ~service_time_us:100 ()))
    ~env ~mode:Spanner.Config.Rss ~theta:0.3 ~n_keys:4000
    ~arrival_rate_per_sec:800.0 ~duration_s:2.0 ~seed:42 ()

let armed_gryff_run () =
  let env =
    Harness.Env.(
      default |> with_check `No_check
      |> with_chaos
           Chaos.Schedule.
             [
               at_s 0.4 (Slow { site = 2; factor = 20 }); at_s 1.4 Slow_clear;
             ]
      |> with_deadline_us (Some 5_000)
      |> with_flow
           (Some
              {
                Harness.fl_admission =
                  Some { Sim.Station.max_queue = 32; max_sojourn_us = 4_000 };
                fl_drop_expired = true;
                fl_hedge_us = 1_000;
                fl_budget = Some (16, 1_000);
                fl_gryff_fanout = Some Gryff.Protocol.Hedged;
              }))
  in
  Harness.gryff_dc ~env ~mode:Gryff.Config.Rsc ~service_time_us:40
    ~n_clients:30 ~conflict:0.1 ~write_ratio:0.3 ~n_keys:2000 ~duration_s:2.0
    ~seed:42 ()

(* Every protection must fire in both runs, so each branch of the flow
   layer is under the pin. *)
let check_armed ~run ~digest () =
  let r = run () in
  List.iter
    (fun name ->
      check bool (name ^ " fired") true (Harness.Run.counter r name > 0))
    [
      "flow.expired"; "flow.shed"; "flow.abandoned"; "flow.hedges";
      "flow.hedge_wins"; "flow.budget.denied";
    ];
  check string "armed digest" digest (armed_digest r)

let test_armed_spanner =
  check_armed ~run:armed_spanner_run ~digest:"ee9027671e0017837c37679cee566ebc"

let test_armed_gryff =
  check_armed ~run:armed_gryff_run ~digest:"1912b35df375fb0836302fa77e750838"

(* ------------------------------------------------------------------ *)
(* Hedged reads under a gray-failed replica                            *)
(* ------------------------------------------------------------------ *)

(* Closed-loop Gryff run with one replica serving 50x slower *and* its
   links lagged: the hedged fan-out must fire, win quorums, and the
   history must still verify — a hedge duplicates an idempotent read, it
   never forks the protocol state. *)
let hedged_run ~fanout ~seed =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Gryff.Config.wan5 ~mode:Gryff.Config.Rsc () in
  let cluster = Gryff.Cluster.create engine ~rng config in
  let victim = 2 in
  Gryff.Cluster.set_site_slowdown cluster ~site:victim ~factor:50;
  let net = Gryff.Cluster.net cluster in
  for s = 0 to 4 do
    if s <> victim then begin
      Sim.Net.set_extra_delay net ~src:s ~dst:victim 200_000;
      Sim.Net.set_extra_delay net ~src:victim ~dst:s 200_000
    end
  done;
  let ctx = Gryff.Cluster.ctx cluster in
  Gryff.Protocol.set_read_fanout ctx fanout;
  Sim.Flow.arm ctx.Gryff.Protocol.flow ~stations:[] ~admission:None
    ~drop_expired:false ~hedge_us:10_000 ~budget:None;
  let wl = Sim.Rng.split rng in
  (* Clients off the victim: hedging recovers a server-side tail. *)
  let clients =
    Array.init 8 (fun i ->
        Gryff.Client.create cluster ~site:(let s = i mod 4 in if s >= victim then s + 1 else s))
  in
  Workload.Client_model.closed_loop engine ~n_clients:8
    ~body:(fun ~client k ->
      let c = clients.(client) in
      let key = Sim.Rng.int wl 32 in
      if Sim.Rng.bool wl 0.25 then
        Gryff.Client.write c ~key ~value:(Gryff.Cluster.fresh_value cluster)
          (fun _ -> k ())
      else Gryff.Client.read c ~key (fun _ -> k ()))
    ~until:(Sim.Engine.sec 3.0) ();
  Sim.Engine.run engine;
  (cluster, Gryff.Cluster.check_history cluster)

let test_hedged_reads_win_under_slow_node () =
  let cluster, verdict = hedged_run ~fanout:Gryff.Protocol.Hedged ~seed:7 in
  let fs = Gryff.Cluster.flow_stats cluster in
  check bool "hedges fired" true (fs.Gryff.Cluster.hedges > 0);
  check bool "hedges won quorums" true (fs.Gryff.Cluster.hedge_wins > 0);
  (match verdict with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("hedged run failed verification: " ^ m));
  (* Same seed, same schedule: hedging is deterministic. *)
  let cluster2, _ = hedged_run ~fanout:Gryff.Protocol.Hedged ~seed:7 in
  let fs2 = Gryff.Cluster.flow_stats cluster2 in
  check int "deterministic hedge count" fs.Gryff.Cluster.hedges
    fs2.Gryff.Cluster.hedges;
  check int "deterministic hedge wins" fs.Gryff.Cluster.hedge_wins
    fs2.Gryff.Cluster.hedge_wins

let suites =
  [
    ( "flow",
      [
        qt prop_amortized_accounting;
        Alcotest.test_case "admission sheds past queue bound" `Quick
          test_admission_sheds_past_queue_bound;
        Alcotest.test_case "admission sheds past sojourn bound" `Quick
          test_admission_sheds_past_sojourn_bound;
        Alcotest.test_case "no limits never sheds" `Quick test_no_limits_never_sheds;
        Alcotest.test_case "budget fast-fails when dry" `Quick
          test_budget_fast_fails_when_dry;
        Alcotest.test_case "retry charges only sent re-offers" `Quick
          test_retry_charges_only_sent_reoffers;
        Alcotest.test_case "with_flow validates hedging" `Quick
          test_with_flow_validates;
        Alcotest.test_case "slowdown scales service" `Quick
          test_slowdown_scales_service;
        Alcotest.test_case "flow off is byte-identical" `Slow
          test_flow_off_is_byte_identical;
        Alcotest.test_case "hedged reads win under slow node" `Slow
          test_hedged_reads_win_under_slow_node;
        Alcotest.test_case "rpc re-attempt past its deadline is abandoned"
          `Quick test_rpc_reattempt_past_deadline;
        Alcotest.test_case "rpc re-attempt denied by a dry budget" `Quick
          test_rpc_reattempt_denied_by_dry_budget;
        Alcotest.test_case "gryff leg send cap spans NACKs and timeouts"
          `Quick test_gryff_leg_send_cap;
        Alcotest.test_case "spanner failover RO re-issue asks flow" `Quick
          test_spanner_ro_reissue_asks_flow;
        Alcotest.test_case "spanner terminate outlives the op's expiry" `Quick
          test_spanner_terminate_outlives_expiry;
        Alcotest.test_case "spanner wounded RW retry past expiry" `Quick
          test_spanner_wounded_rw_past_expiry;
      ] );
    ( "flow.armed_golden",
      [
        Alcotest.test_case "spanner single-DC protected ramp" `Slow
          test_armed_spanner;
        Alcotest.test_case "gryff slow node, hedged and shedding" `Slow
          test_armed_gryff;
      ] );
  ]
