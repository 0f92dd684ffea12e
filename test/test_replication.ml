(* Tests for the replication substrate and the message-queue service. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mk_net () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 1 in
  (* sites: 0 leader, 1 near (RTT 20ms), 2 far (RTT 100ms) *)
  let rtt = [| [| 0.2; 20.0; 100.0 |]; [| 20.0; 0.2; 50.0 |]; [| 100.0; 50.0; 0.2 |] |] in
  (engine, Sim.Net.create engine ~rng ~rtt_ms:rtt ~jitter:0.0 ())

let test_majority_is_nearest () =
  let engine, net = mk_net () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2 ] () in
  check int "majority of 3" 2 (Replication.Group.majority g);
  let done_at = ref (-1) in
  Replication.Group.replicate g () (fun () -> done_at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  (* One ack needed: round trip to the 20ms replica. *)
  check int "commit at nearest replica RTT" 20_000 !done_at;
  check int "log grew" 1 (Replication.Group.log_length g)

let test_no_replicas_immediate () =
  let engine, net = mk_net () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[] () in
  let fired = ref false in
  Replication.Group.replicate g () (fun () -> fired := true);
  check bool "synchronous" true !fired;
  ignore engine

let test_five_replicas_needs_two_acks () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 1 in
  let rtt =
    [|
      [| 0.2; 10.0; 30.0; 50.0; 70.0 |];
      [| 10.0; 0.2; 0.0; 0.0; 0.0 |];
      [| 30.0; 0.0; 0.2; 0.0; 0.0 |];
      [| 50.0; 0.0; 0.0; 0.2; 0.0 |];
      [| 70.0; 0.0; 0.0; 0.0; 0.2 |];
    |]
  in
  let net = Sim.Net.create engine ~rng ~rtt_ms:rtt ~jitter:0.0 () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2; 3; 4 ] () in
  check int "majority of 5" 3 (Replication.Group.majority g);
  let done_at = ref (-1) in
  Replication.Group.replicate g () (fun () -> done_at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  (* Leader + 2 acks: second-nearest replica at 30ms RTT. *)
  check int "second ack decides" 30_000 !done_at

let test_concurrent_replications_independent () =
  let engine, net = mk_net () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2 ] () in
  let order = ref [] in
  Replication.Group.replicate g () (fun () -> order := 1 :: !order);
  Sim.Engine.schedule engine ~after:5_000 (fun () ->
      Replication.Group.replicate g () (fun () -> order := 2 :: !order));
  Sim.Engine.run engine;
  check (Alcotest.list int) "both committed in order" [ 1; 2 ] (List.rev !order);
  check int "log" 2 (Replication.Group.log_length g)

let test_station_charges_acks () =
  let engine, net = mk_net () in
  let station = Sim.Station.create engine ~service_time_us:500 in
  let g =
    Replication.Group.create net ~station ~leader_site:0 ~replica_sites:[ 1; 2 ] ()
  in
  let done_at = ref (-1) in
  Replication.Group.replicate g () (fun () -> done_at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  check int "ack pays CPU" 20_500 !done_at;
  check bool "station busy time" true (Sim.Station.busy_us station >= 500)

(* ------------------------------------------------------------------ *)
(* Failover                                                            *)
(* ------------------------------------------------------------------ *)

let test_ack_dedup_under_duplication () =
  (* Five-site group needing two acks, with the nearest replica's ack link
     duplicating every message. Counting the copy would commit at the first
     replica's RTT (10 ms); per-replica deduplication must wait for a second
     distinct replica (30 ms). *)
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 1 in
  let rtt =
    [|
      [| 0.2; 10.0; 30.0; 50.0; 70.0 |];
      [| 10.0; 0.2; 0.0; 0.0; 0.0 |];
      [| 30.0; 0.0; 0.2; 0.0; 0.0 |];
      [| 50.0; 0.0; 0.0; 0.2; 0.0 |];
      [| 70.0; 0.0; 0.0; 0.0; 0.2 |];
    |]
  in
  let net = Sim.Net.create engine ~rng ~rtt_ms:rtt ~jitter:0.0 () in
  Sim.Net.set_dup net ~src:1 ~dst:0 0.99;
  let g =
    Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2; 3; 4 ] ()
  in
  let done_at = ref (-1) in
  Replication.Group.replicate g () (fun () -> done_at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  check bool "ack link duplicated" true (Sim.Net.messages_duplicated net > 0);
  check int "duplicate ack does not count twice" 30_000 !done_at;
  check bool "suppressed duplicate counted" true
    ((Replication.Group.stats g).Replication.Group.dup_acks >= 1)

let test_view_change_on_leader_crash () =
  let engine, net = mk_net () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2 ] () in
  let changes = ref [] in
  Replication.Group.enable_failover g
    ~on_leader_change:(fun ~leader_site ~committed ->
      changes := (leader_site, List.length committed) :: !changes)
    ~until_us:(Sim.Engine.sec 10.0) ();
  let committed = ref 0 in
  for i = 1 to 3 do
    Sim.Engine.schedule engine ~after:(i * 10_000) (fun () ->
        Replication.Group.replicate g i (fun () -> incr committed))
  done;
  Sim.Engine.schedule engine ~after:1_000_000 (fun () -> Sim.Net.set_down net 0);
  Sim.Engine.run engine;
  check int "entries committed before the crash" 3 !committed;
  check bool "view advanced" true (Replication.Group.view g > 0);
  check bool "leadership moved off the crashed site" true
    (Replication.Group.leader_site g <> 0);
  check bool "new leader is serving" true (Replication.Group.serving g);
  check int "committed entries survive the election" 3
    (Replication.Group.log_length g);
  (match List.rev !changes with
  | (site, n) :: _ ->
    check bool "callback carries the new leader" true (site <> 0);
    check int "callback carries the full log" 3 n
  | [] -> Alcotest.fail "on_leader_change never fired");
  check bool "view change counted" true
    ((Replication.Group.stats g).Replication.Group.view_changes >= 1)

let test_catchup_after_recovery () =
  (* A follower sleeps through four appends; on recovery the leader's
     heartbeats expose the gap and a state transfer closes it. The leader
     itself never loses its majority (2 of 3), so no election happens. *)
  let engine, net = mk_net () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2 ] () in
  Replication.Group.enable_failover g ~until_us:(Sim.Engine.sec 10.0) ();
  Sim.Engine.schedule engine ~after:100_000 (fun () -> Sim.Net.set_down net 2);
  for i = 1 to 4 do
    Sim.Engine.schedule engine
      ~after:(200_000 + (i * 10_000))
      (fun () -> Replication.Group.replicate g i (fun () -> ()))
  done;
  Sim.Engine.schedule engine ~after:2_000_000 (fun () -> Sim.Net.set_up net 2);
  Sim.Engine.run engine;
  check int "leadership never moved" 0 (Replication.Group.leader_site g);
  check int "view stable" 0 (Replication.Group.view g);
  check int "log intact" 4 (Replication.Group.log_length g);
  check bool "recovered follower caught up by state transfer" true
    ((Replication.Group.stats g).Replication.Group.catchups >= 1)

let test_state_transfer_credits_held () =
  (* Both followers sleep through an append, then catch up by state
     transfer, which acks nothing. Their pongs name the install point, so
     the entry commits with no later proposal to carry it. *)
  let engine, net = mk_net () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2 ] () in
  Replication.Group.enable_failover g ~until_us:(Sim.Engine.sec 10.0) ();
  let fired_at = ref (-1) in
  Sim.Engine.schedule engine ~after:100_000 (fun () ->
      Sim.Net.set_down net 1;
      Sim.Net.set_down net 2);
  Sim.Engine.schedule engine ~after:200_000 (fun () ->
      Replication.Group.replicate g 1 (fun () ->
          fired_at := Sim.Engine.now engine));
  Sim.Engine.schedule engine ~after:300_000 (fun () ->
      Sim.Net.set_up net 1;
      Sim.Net.set_up net 2);
  Sim.Engine.run engine;
  check int "view stable" 0 (Replication.Group.view g);
  check int "both followers caught up by state transfer" 2
    (Replication.Group.stats g).Replication.Group.catchups;
  check bool "committed within a heartbeat round of the catch-up" true
    (!fired_at > 300_000 && !fired_at < 600_000)

let test_torn_leader_tail_not_credited () =
  (* Follower 1 installs the leader's log [A]; follower 2 stays down. Before
     follower 1's next pong, the leader crashes, loses A to a torn tail and
     comes back in the same view, and B lands at A's index. Neither
     follower holds B: follower 1's re-ack of index 0 and its install point
     both name A, so B must not commit (nor A, which the leader lost). *)
  let ctl =
    Sim.Durable.Faults.install
      ~spec:
        {
          Sim.Durable.Faults.tear_prob = 1.0;
          max_tear = 1;
          corrupt_prob = 0.0;
          stale_prob = 0.0;
          max_stale = 0;
          lost_int_prob = 0.0;
        }
      ~seed:3 ()
  in
  Fun.protect ~finally:(fun () -> Sim.Durable.Faults.retire ctl) @@ fun () ->
  let engine, net = mk_net () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2 ] () in
  Replication.Group.enable_failover g ~until_us:(Sim.Engine.sec 3.0) ();
  let fired = ref [] in
  let propose i =
    Replication.Group.replicate g i (fun () -> fired := i :: !fired)
  in
  Sim.Engine.schedule engine ~after:100_000 (fun () ->
      Sim.Net.set_down net 1;
      Sim.Net.set_down net 2);
  Sim.Engine.schedule engine ~after:200_000 (fun () -> propose 1);
  Sim.Engine.schedule engine ~after:300_000 (fun () -> Sim.Net.set_up net 1);
  let torn_at = ref (-1) in
  let rec watch () =
    if (Replication.Group.stats g).Replication.Group.catchups >= 1 then begin
      torn_at := Sim.Engine.now engine;
      Sim.Net.set_down net 0;
      Sim.Durable.Faults.crash_site ctl 0;
      Sim.Engine.schedule engine ~after:2_000 (fun () -> Sim.Net.set_up net 0);
      Sim.Engine.schedule engine ~after:3_000 (fun () -> propose 2)
    end
    else Sim.Engine.schedule engine ~after:1_000 watch
  in
  Sim.Engine.schedule engine ~after:300_000 watch;
  Sim.Engine.run engine;
  check bool "follower 1 caught up, then the leader tore" true (!torn_at > 0);
  check int "the leader lost A" 1
    (Sim.Durable.Faults.stats ctl).Sim.Durable.Faults.fs_torn;
  check int "view stable" 0 (Replication.Group.view g);
  check int "B took A's index" 1 (Replication.Group.log_length g);
  check (Alcotest.list int) "nothing committed" [] !fired

let test_failover_deterministic () =
  (* Same crash schedule, same seed: the election must land on the same
     view, leader, and timing — failover timers draw from a dedicated
     seeded stream, never the wall clock. *)
  let go () =
    let engine, net = mk_net () in
    let g =
      Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2 ] ()
    in
    Replication.Group.enable_failover g ~until_us:(Sim.Engine.sec 10.0) ();
    Sim.Engine.schedule engine ~after:500_000 (fun () -> Sim.Net.set_down net 0);
    Sim.Engine.run engine;
    let s = Replication.Group.stats g in
    ( Replication.Group.view g,
      Replication.Group.leader_site g,
      s.Replication.Group.view_changes,
      s.Replication.Group.heartbeats,
      s.Replication.Group.max_election_us )
  in
  let a = go () and b = go () in
  check bool "identical failover trajectory" true (a = b)

(* ------------------------------------------------------------------ *)
(* Message queue                                                       *)
(* ------------------------------------------------------------------ *)

let test_mqueue_fifo () =
  let engine = Sim.Engine.create () in
  let q = Photoapp.Mqueue.create engine ~rtt_us:2_000 in
  let got = ref [] in
  Photoapp.Mqueue.enqueue q ~payload:1 ~ctx:() (fun () ->
      Photoapp.Mqueue.enqueue q ~payload:2 ~ctx:() (fun () ->
          Photoapp.Mqueue.dequeue q (fun a ->
              Photoapp.Mqueue.dequeue q (fun b -> got := [ a; b ]))));
  Sim.Engine.run engine;
  (match !got with
  | [ Some (1, ()); Some (2, ()) ] -> ()
  | _ -> Alcotest.fail "not FIFO");
  check int "empty after" 0 (Photoapp.Mqueue.length q)

let test_mqueue_empty_dequeue () =
  let engine = Sim.Engine.create () in
  let q = Photoapp.Mqueue.create engine ~rtt_us:2_000 in
  let got = ref (Some (0, ())) in
  Photoapp.Mqueue.dequeue q (fun x -> got := x);
  Sim.Engine.run engine;
  check bool "none" true (!got = None)

let test_mqueue_latency () =
  let engine = Sim.Engine.create () in
  let q = Photoapp.Mqueue.create engine ~rtt_us:2_000 in
  let at = ref (-1) in
  Photoapp.Mqueue.enqueue q ~payload:1 ~ctx:42 (fun () -> at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  check int "enqueue costs one RTT" 2_000 !at

let test_mqueue_carries_context () =
  let engine = Sim.Engine.create () in
  let q = Photoapp.Mqueue.create engine ~rtt_us:1_000 in
  let ctx = ref 0 in
  Photoapp.Mqueue.enqueue q ~payload:7 ~ctx:99 (fun () ->
      Photoapp.Mqueue.dequeue q (function
        | Some (7, c) -> ctx := c
        | Some _ | None -> ()));
  Sim.Engine.run engine;
  check int "context delivered" 99 !ctx

let suites =
  [
    ( "replication",
      [
        Alcotest.test_case "majority = nearest" `Quick test_majority_is_nearest;
        Alcotest.test_case "no replicas" `Quick test_no_replicas_immediate;
        Alcotest.test_case "five replicas" `Quick test_five_replicas_needs_two_acks;
        Alcotest.test_case "concurrent entries" `Quick
          test_concurrent_replications_independent;
        Alcotest.test_case "station charges acks" `Quick test_station_charges_acks;
      ] );
    ( "replication.failover",
      [
        Alcotest.test_case "ack dedup under duplication" `Quick
          test_ack_dedup_under_duplication;
        Alcotest.test_case "view change on leader crash" `Quick
          test_view_change_on_leader_crash;
        Alcotest.test_case "catch-up after recovery" `Quick
          test_catchup_after_recovery;
        Alcotest.test_case "state transfer credits held entries" `Quick
          test_state_transfer_credits_held;
        Alcotest.test_case "torn leader tail not credited" `Quick
          test_torn_leader_tail_not_credited;
        Alcotest.test_case "seeded determinism" `Quick test_failover_deterministic;
      ] );
    ( "photoapp.mqueue",
      [
        Alcotest.test_case "fifo" `Quick test_mqueue_fifo;
        Alcotest.test_case "empty dequeue" `Quick test_mqueue_empty_dequeue;
        Alcotest.test_case "latency" `Quick test_mqueue_latency;
        Alcotest.test_case "carries context" `Quick test_mqueue_carries_context;
      ] );
  ]
