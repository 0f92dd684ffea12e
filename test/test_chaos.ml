(* Chaos subsystem tests: the per-link fault model in Sim.Net, declarative
   fault schedules, seeded nemesis generation, and the audit battery — every
   schedule kind against all four protocols, with liveness, determinism,
   quorum ride-through, and deliberately broken controls proving the
   checkers catch what they are supposed to catch. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mk_net ?(n = 3) ?(seed = 1) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let rtt_ms = Array.make_matrix n n 10.0 in
  for i = 0 to n - 1 do
    rtt_ms.(i).(i) <- 1.0
  done;
  (engine, Sim.Net.create engine ~rng ~rtt_ms ())

(* ------------------------------------------------------------------ *)
(* Sim.Net per-link fault model                                        *)
(* ------------------------------------------------------------------ *)

let test_net_asymmetric_block () =
  let engine, net = mk_net () in
  let got = ref [] in
  Sim.Net.block_link net ~src:0 ~dst:1;
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> got := "0->1" :: !got);
  Sim.Net.send net ~src:1 ~dst:0 (fun () -> got := "1->0" :: !got);
  Sim.Engine.run engine;
  check (Alcotest.list Alcotest.string) "only reverse direction delivered"
    [ "1->0" ] !got;
  check int "charged to partition" 1 (Sim.Net.dropped_partition net);
  check bool "queryable" true (Sim.Net.link_blocked net ~src:0 ~dst:1);
  check bool "reverse not blocked" false (Sim.Net.link_blocked net ~src:1 ~dst:0);
  Sim.Net.unblock_link net ~src:0 ~dst:1;
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> got := "again" :: !got);
  Sim.Engine.run engine;
  check bool "delivered after unblock" true (List.mem "again" !got)

let test_net_loss () =
  let engine, net = mk_net () in
  let delivered = ref 0 in
  Sim.Net.set_loss net ~src:0 ~dst:1 0.5;
  for _ = 1 to 200 do
    Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered)
  done;
  Sim.Engine.run engine;
  let lost = Sim.Net.dropped_loss net in
  check int "every message accounted" 200 (lost + !delivered);
  check bool "some lost" true (lost > 50);
  check bool "some delivered" true (!delivered > 50);
  check int "loss is the only drop cause" lost (Sim.Net.messages_dropped net);
  Sim.Net.clear_link_faults net;
  let d0 = !delivered in
  for _ = 1 to 50 do
    Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered)
  done;
  Sim.Engine.run engine;
  check int "lossless after clear" (d0 + 50) !delivered

let test_net_duplication () =
  let engine, net = mk_net () in
  let delivered = ref 0 in
  Sim.Net.set_dup net ~src:0 ~dst:1 0.9;
  for _ = 1 to 100 do
    Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered)
  done;
  Sim.Engine.run engine;
  check int "duplicates delivered twice" (100 + Sim.Net.messages_duplicated net)
    !delivered;
  check bool "some duplicated" true (Sim.Net.messages_duplicated net > 50)

let test_net_drop_cause_precedence () =
  let engine, net = mk_net () in
  (* A crashed destination outranks a blocked, lossy link: the drop is
     charged to the crash, and no loss randomness is consumed. *)
  Sim.Net.set_down net 1;
  Sim.Net.block_link net ~src:0 ~dst:1;
  Sim.Net.set_loss net ~src:0 ~dst:1 0.9;
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> ());
  Sim.Engine.run engine;
  check int "crash charged" 1 (Sim.Net.dropped_crash net);
  check int "partition not charged" 0 (Sim.Net.dropped_partition net);
  check int "loss not charged" 0 (Sim.Net.dropped_loss net);
  check int "total preserved" 1 (Sim.Net.messages_dropped net)

let test_net_crash_recover () =
  let engine, net = mk_net () in
  let delivered = ref 0 in
  Sim.Net.set_down net 0;
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered);
  Sim.Net.send net ~src:1 ~dst:0 (fun () -> incr delivered);
  Sim.Net.send net ~src:1 ~dst:2 (fun () -> incr delivered);
  Sim.Engine.run engine;
  check int "both directions dropped while down" 2 (Sim.Net.dropped_crash net);
  check int "unrelated link unaffected" 1 !delivered;
  check bool "is_down" true (Sim.Net.is_down net 0);
  Sim.Net.set_up net 0;
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered);
  Sim.Engine.run engine;
  check int "delivers after recovery" 2 !delivered

let test_net_extra_delay_and_reorder () =
  let engine, net = mk_net () in
  let t_normal = ref 0 and t_slow = ref 0 in
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> t_normal := Sim.Engine.now engine);
  Sim.Engine.run engine;
  Sim.Net.set_extra_delay net ~src:0 ~dst:1 50_000;
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> t_slow := Sim.Engine.now engine);
  Sim.Engine.run engine;
  check bool "spike adds at least the extra delay" true
    (!t_slow - !t_normal >= 50_000);
  check bool "delayed counter moved" true (Sim.Net.messages_delayed net > 0);
  Sim.Net.clear_link_faults net;
  Sim.Net.set_reorder net ~src:0 ~dst:2 ~prob:0.9 ~max_extra_us:20_000;
  let order = ref [] in
  for i = 1 to 20 do
    Sim.Net.send net ~src:0 ~dst:2 (fun () -> order := i :: !order)
  done;
  Sim.Engine.run engine;
  check int "all delivered" 20 (List.length !order);
  check bool "some messages reordered" true
    (List.rev !order <> List.init 20 (fun i -> i + 1))

let test_net_partition_heal () =
  let engine, net = mk_net () in
  let delivered = ref 0 in
  Sim.Net.partition net [ 0 ] [ 1; 2 ];
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered);
  Sim.Net.send net ~src:2 ~dst:0 (fun () -> incr delivered);
  Sim.Net.send net ~src:1 ~dst:2 (fun () -> incr delivered);
  Sim.Engine.run engine;
  check int "cross-partition dropped both ways" 2 (Sim.Net.dropped_partition net);
  check int "same side delivered" 1 !delivered;
  Sim.Net.heal_partitions net;
  Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered);
  Sim.Engine.run engine;
  check int "heals" 2 !delivered

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_helpers () =
  check int "links_between counts both directions" 4
    (List.length (Chaos.Schedule.links_between [ 0 ] [ 1; 2 ]));
  check int "links_of_site" 4 (List.length (Chaos.Schedule.links_of_site ~n:3 0));
  check (Alcotest.list int) "sites_except" [ 1; 3 ]
    (Chaos.Schedule.sites_except ~n:4 [ 0; 2 ]);
  let s =
    Chaos.Schedule.[ at_s 2.0 Heal; at_s 0.5 (Crash [ 1 ]); at_s 1.0 Heal ]
  in
  check int "end_of_faults is the latest event" (Sim.Engine.sec 2.0)
    (Chaos.Schedule.end_of_faults s)

let test_schedule_apply_timing () =
  let engine, net = mk_net () in
  let delivered = ref 0 in
  let schedule =
    Chaos.Schedule.
      [ at_us 1_000 (Block ([ 0 ], [ 1 ])); at_us 100_000 Heal ]
  in
  let fired = ref 0 in
  let n =
    Chaos.Schedule.apply schedule ~engine ~net ~on_fault:(fun _ -> incr fired) ()
  in
  check int "all events armed" 2 n;
  Sim.Engine.schedule_at engine ~at:50_000 (fun () ->
      Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered));
  Sim.Engine.schedule_at engine ~at:200_000 (fun () ->
      Sim.Net.send net ~src:0 ~dst:1 (fun () -> incr delivered));
  Sim.Engine.run engine;
  check int "mid-window send dropped, post-heal send delivered" 1 !delivered;
  check int "on_fault saw each event" 2 !fired

let test_schedule_epsilon () =
  let engine, net = mk_net () in
  let tt = Sim.Truetime.create engine ~epsilon_us:7_000 in
  let schedule =
    Chaos.Schedule.
      [ at_us 1_000 (Epsilon 70_000); at_us 2_000 Epsilon_reset ]
  in
  ignore (Chaos.Schedule.apply schedule ~engine ~net ~tt ());
  let mid = ref 0 and after = ref 0 in
  Sim.Engine.schedule_at engine ~at:1_500 (fun () -> mid := Sim.Truetime.epsilon tt);
  Sim.Engine.schedule_at engine ~at:2_500 (fun () -> after := Sim.Truetime.epsilon tt);
  Sim.Engine.run engine;
  check int "inflated mid-window" 70_000 !mid;
  check int "restored to the value at apply time" 7_000 !after

(* ------------------------------------------------------------------ *)
(* Nemesis                                                             *)
(* ------------------------------------------------------------------ *)

let test_nemesis_deterministic () =
  let gen seed =
    Chaos.Nemesis.generate Chaos.Nemesis.Mixed ~n_sites:5
      ~duration_us:(Sim.Engine.sec 10.0) ~seed ()
  in
  check bool "same seed, same schedule" true (gen 3 = gen 3);
  check bool "different seed, different schedule" true (gen 3 <> gen 4)

let test_nemesis_presets_shape () =
  List.iter
    (fun (name, preset) ->
      let s =
        Chaos.Nemesis.generate preset ~n_sites:5
          ~duration_us:(Sim.Engine.sec 10.0) ~seed:1 ()
      in
      check bool (name ^ " has fault windows") true (List.length s >= 6);
      check int
        (name ^ " cleanup at 80% of the run")
        (Sim.Engine.sec 8.0) (Chaos.Schedule.end_of_faults s))
    Chaos.Nemesis.presets

let test_nemesis_protect () =
  (* With all sites but one protected, every crash hits the one left over. *)
  for seed = 0 to 20 do
    let s =
      Chaos.Nemesis.generate Chaos.Nemesis.Crash_recover ~n_sites:5
        ~protect:[ 0; 1; 2; 3 ] ~duration_us:(Sim.Engine.sec 10.0) ~seed ()
    in
    List.iter
      (fun e ->
        match e.Chaos.Schedule.fault with
        | Chaos.Schedule.Crash victims ->
          check (Alcotest.list int) "only the unprotected site crashes" [ 4 ]
            victims
        | _ -> ())
      s
  done

(* ------------------------------------------------------------------ *)
(* Audit battery: every schedule kind x every protocol                 *)
(* ------------------------------------------------------------------ *)

(* The five required schedule kinds, sized for an [n]-site deployment. *)
let battery ~n =
  Chaos.Schedule.
    [
      ( "partition-heal",
        [ at_s 1.0 (Partition ([ 0 ], sites_except ~n [ 0 ])); at_s 3.0 Heal ] );
      ( "link-loss",
        [
          at_s 1.0 (Loss { links = links_of_site ~n 0; prob = 0.1 });
          at_s 3.0 Clear_links;
        ] );
      ( "crash-recover", [ at_s 1.0 (Crash [ n - 1 ]); at_s 3.0 (Recover [ n - 1 ]) ] );
      ( "latency-spike",
        [
          at_s 1.0 (Delay { links = links_of_site ~n 0; extra_us = 40_000 });
          at_s 3.0 Clear_links;
        ] );
      ( "eps-inflate", [ at_s 1.0 (Epsilon 80_000); at_s 3.0 Epsilon_reset ] );
    ]

(* One audit run through the harness's driver core. *)
let audit ?config ?client_sites ?n_slots ?(failover = false) protocol ~schedule
    ~duration_s ~seed =
  Harness.audit ?config ?client_sites ?n_slots
    ~env:Harness.Env.(default |> with_chaos schedule |> with_failover failover)
    protocol ~duration_s ~seed ()

let counter = Harness.Run.counter

let check_verified label r =
  match r.Harness.Run.check with
  | Harness.Run.Pass -> ()
  | Harness.Run.Fail m | Harness.Run.Unknown m ->
    Alcotest.failf "%s: consistency violation: %s" label m

let test_audit_battery () =
  List.iter
    (fun protocol ->
      let n =
        match Chaos.Audit.deployment protocol with
        | Chaos.Audit.Spanner_wan c -> Array.length c.Spanner.Config.rtt_ms
        | Chaos.Audit.Gryff_wan c -> Array.length c.Gryff.Config.rtt_ms
      in
      List.iter
        (fun (kind, schedule) ->
          let label = Chaos.Audit.protocol_name protocol ^ "/" ^ kind in
          let r = audit protocol ~schedule ~n_slots:6 ~duration_s:5.0 ~seed:7 in
          check_verified label r;
          check bool (label ^ ": liveness resumed after heal") true
            (Harness.liveness_ok ~min_post_quiet:5 r);
          check int
            (label ^ ": every schedule event injected")
            (List.length schedule) (counter r "fault.injected");
          let counted what name =
            check bool (label ^ ": " ^ what ^ " counted") true (counter r name > 0)
          in
          match kind with
          | "partition-heal" -> counted "partition drops" "fault.dropped_partition"
          | "link-loss" -> counted "loss drops" "fault.dropped_loss"
          | "crash-recover" -> counted "crash drops" "fault.dropped_crash"
          | "latency-spike" -> counted "delayed messages" "fault.delayed"
          | _ -> ())
        (battery ~n))
    Chaos.Audit.protocols

let test_audit_determinism () =
  (* Same (workload seed, nemesis seed) must reproduce the run down to the
     last history record — run twice and diff the canonical traces. *)
  let go nemesis_seed =
    let schedule =
      Chaos.Audit.nemesis_schedule Chaos.Audit.Spanner_rss Chaos.Nemesis.Mixed
        ~duration_s:6.0 ~seed:nemesis_seed
    in
    audit Chaos.Audit.Spanner_rss ~schedule ~n_slots:6 ~duration_s:6.0 ~seed:9
  in
  let a = go 5 and b = go 5 in
  let trace = Harness.audit_trace in
  check bool "histories byte-identical" true (String.equal (trace a) (trace b));
  check bool "history non-trivial" true (Harness.Run.n_records a > 50);
  check int "same message count" (counter a "net.messages")
    (counter b "net.messages");
  let drops r =
    counter r "fault.dropped_partition"
    + counter r "fault.dropped_crash"
    + counter r "fault.dropped_loss"
  in
  check int "same drop counts" (drops a) (drops b);
  check bool "different nemesis seed, different run" true
    (not (String.equal (trace a) (trace (go 6))))

(* ------------------------------------------------------------------ *)
(* Quorum ride-through: a minority crash must not stop commits         *)
(* ------------------------------------------------------------------ *)

(* Five-site Spanner: leaders (and clients) at sites 0-2, every group's
   followers at sites 3-4. Crashing site 4 leaves each Paxos group a
   majority (leader + one follower), so 2PC commits must keep flowing. *)
let spanner5 ~mode =
  let base = Spanner.Config.wan3 ~mode () in
  let g = Gryff.Config.wan5 ~mode:Gryff.Config.Lin () in
  {
    base with
    Spanner.Config.rtt_ms = g.Gryff.Config.rtt_ms;
    leader_site = [| 0; 1; 2 |];
    replica_sites = [| [ 3; 4 ]; [ 3; 4 ]; [ 3; 4 ] |];
    client_sites = [| 0; 1; 2 |];
  }

let crash_only = Chaos.Schedule.[ at_s 1.0 (Crash [ 4 ]) ]

let test_spanner_quorum_ride_through () =
  List.iter
    (fun (label, mode, protocol) ->
      let r =
        audit ~config:(spanner5 ~mode) protocol ~schedule:crash_only ~n_slots:8
          ~duration_s:5.0 ~seed:3
      in
      check_verified ("spanner(" ^ label ^ ") under crash") r;
      check int (label ^ ": no operation stalls on a minority crash") 0
        (counter r "op.timed_out");
      check bool (label ^ ": commits continue during the crash") true
        (counter r "op.post_heal_completed" > 50);
      check bool (label ^ ": the dead replica's traffic is dropped") true
        (counter r "fault.dropped_crash" > 0))
    [
      ("strict", Spanner.Config.Strict, Chaos.Audit.Spanner_strict);
      ("rss", Spanner.Config.Rss, Chaos.Audit.Spanner_rss);
    ]

let test_gryff_quorum_ride_through () =
  (* One of five replicas down: quorum 3 still reachable from the four
     surviving client sites, so reads and writes complete and RSC holds. *)
  let r =
    audit Chaos.Audit.Gryff_rsc ~client_sites:[| 0; 1; 2; 3 |]
      ~schedule:crash_only ~n_slots:8 ~duration_s:5.0 ~seed:3
  in
  check_verified "gryff-rsc under crash" r;
  check int "no operation stalls on a minority crash" 0
    (counter r "op.timed_out");
  check bool "ops continue during the crash" true
    (counter r "op.post_heal_completed" > 100);
  check bool "the dead replica's traffic is dropped" true
    (counter r "fault.dropped_crash" > 0)

(* ------------------------------------------------------------------ *)
(* Broken controls: the checkers must catch deliberate violations      *)
(* ------------------------------------------------------------------ *)

let test_stale_read_controls () =
  List.iter
    (fun (protocol, kind, n) ->
      let r =
        audit protocol
          ~schedule:(List.assoc kind (battery ~n))
          ~n_slots:6 ~duration_s:5.0 ~seed:7
      in
      let name = Chaos.Audit.protocol_name protocol in
      match Harness.stale_control protocol r with
      | Some (Harness.Run.Fail _) -> ()
      | Some (Harness.Run.Pass | Harness.Run.Unknown _) ->
        Alcotest.failf "%s checker accepted a stale read" name
      | None -> Alcotest.failf "%s history had no read to corrupt" name)
    [
      (Chaos.Audit.Spanner_rss, "partition-heal", 3);
      (Chaos.Audit.Gryff_rsc, "link-loss", 5);
    ]

(* Protocol-level control: a Gryff-RSC client that discards its read
   dependencies (RSC fence disabled). Deterministic anomaly: a write from JP
   is stranded at a minority {OR, JP} by an asymmetric block; a CA client
   reads it through OR, then — with OR's and JP's replies to CA cut — reads
   again and regresses to the old value. With dependencies intact the second
   read's piggybacked write-back repairs the local replica instead. *)
let unsafe_no_deps_scenario ~unsafe =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 11 in
  let config = Gryff.Config.wan5 ~mode:Gryff.Config.Rsc () in
  let cluster = Gryff.Cluster.create engine ~rng config in
  let schedule =
    Chaos.Schedule.
      [
        at_s 1.13 (Block ([ 4 ], [ 0; 1; 2 ]));
        at_s 1.5 (Block ([ 3; 4 ], [ 0 ]));
      ]
  in
  ignore (Chaos.Schedule.apply schedule ~engine ~net:(Gryff.Cluster.net cluster) ());
  let c0 = Gryff.Client.create cluster ~site:0 in
  let w4 = Gryff.Client.create cluster ~site:4 in
  let reader = Gryff.Client.create ~unsafe_no_deps:unsafe cluster ~site:0 in
  let seen = ref [] in
  Sim.Engine.schedule_at engine ~at:(Sim.Engine.sec 0.1) (fun () ->
      Gryff.Client.write c0 ~key:0 ~value:100 (fun _ -> ()));
  Sim.Engine.schedule_at engine ~at:(Sim.Engine.sec 1.02) (fun () ->
      (* The propagate phase starts after the block arms, so the value lands
         only at OR and JP; the write never gathers a quorum of acks, and
         the sweep convention records it as incomplete. *)
      Gryff.Client.write w4
        ~on_apply:(fun cs ->
          Gryff.Cluster.record cluster
            {
              Gryff.Cluster.g_proc = Gryff.Client.proc w4;
              g_kind = Gryff.Cluster.Write;
              g_key = 0;
              g_observed = None;
              g_written = Some 200;
              g_cs = cs;
              g_inv = Sim.Engine.sec 1.02;
              g_resp = max_int;
            })
        ~key:0 ~value:200 (fun _ -> ()));
  Sim.Engine.schedule_at engine ~at:(Sim.Engine.sec 1.3) (fun () ->
      Gryff.Client.read reader ~key:0 (fun r ->
          seen := r.Gryff.Protocol.r_value :: !seen));
  Sim.Engine.schedule_at engine ~at:(Sim.Engine.sec 1.6) (fun () ->
      Gryff.Client.read reader ~key:0 (fun r ->
          seen := r.Gryff.Protocol.r_value :: !seen));
  Sim.Engine.run ~max_events:10_000_000 engine;
  (List.rev !seen, Gryff.Cluster.check_history cluster)

let test_unsafe_no_deps_control () =
  let seen, verdict = unsafe_no_deps_scenario ~unsafe:true in
  check
    (Alcotest.list (Alcotest.option int))
    "dep discarded: second read regresses"
    [ Some 200; Some 100 ] seen;
  (match verdict with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker accepted the no-deps regression");
  let seen, verdict = unsafe_no_deps_scenario ~unsafe:false in
  check
    (Alcotest.list (Alcotest.option int))
    "deps intact: write-back repairs the read"
    [ Some 200; Some 200 ] seen;
  match verdict with
  | Ok () -> ()
  | Error m -> Alcotest.failf "safe client must verify: %s" m

(* Gryff-WAN under the mixed nemesis with retransmission: a settled call
   cancels its timeout, so every [rpc.backoff] event that runs belongs to
   an open call and ends in a retry, an exhaustion or a refused
   re-attempt. *)
let test_rpc_backoff_events_are_live () =
  let duration_us = Sim.Engine.sec 3.0 in
  let engine = Sim.Engine.create () in
  let cluster =
    Gryff.Cluster.create engine ~rng:(Sim.Rng.make 1)
      (Gryff.Config.wan5 ~mode:Gryff.Config.Rsc ())
  in
  Gryff.Cluster.enable_retrans cluster ~rng:(Sim.Rng.make 2) ();
  let schedule =
    Chaos.Nemesis.generate Chaos.Nemesis.Mixed ~n_sites:5 ~duration_us ~seed:1 ()
  in
  ignore
    (Chaos.Schedule.apply schedule ~engine ~net:(Gryff.Cluster.net cluster) ());
  let clients =
    Array.init 20 (fun i -> Gryff.Client.create cluster ~site:(i mod 5))
  in
  let rng = Sim.Rng.make 3 in
  Workload.Client_model.closed_loop engine ~n_clients:20
    ~body:(fun ~client k ->
      let c = clients.(client) and key = Sim.Rng.int rng 50 in
      if Sim.Rng.bool rng 0.5 then
        Gryff.Client.write c ~key ~value:(Gryff.Cluster.fresh_value cluster)
          (fun _ -> k ())
      else Gryff.Client.read c ~key (fun _ -> k ()))
    ~until:duration_us ();
  Sim.Engine.enable_profiling engine;
  Sim.Engine.run engine;
  let backoff =
    List.fold_left
      (fun acc (kind, n, _) -> if kind = "rpc.backoff" then acc + n else acc)
      0 (Sim.Engine.profile engine)
  in
  let rs = Gryff.Cluster.retrans_stats cluster in
  check bool "retransmitted" true (rs.Gryff.Cluster.rpc_retries > 0);
  check int "rpc.backoff = retries + exhausted + abandoned"
    (rs.Gryff.Cluster.rpc_retries + rs.Gryff.Cluster.rpc_exhausted
    + (Gryff.Cluster.flow_stats cluster).Gryff.Cluster.abandoned)
    backoff;
  check bool "most calls never time out" true
    (2 * backoff < rs.Gryff.Cluster.rpc_calls);
  check int "drained" 0 (Sim.Engine.pending engine)

(* ------------------------------------------------------------------ *)
(* Failover audits: leader-kill and rolling-crash presets              *)
(* ------------------------------------------------------------------ *)

let test_failover_battery () =
  (* Every protocol under both leader-killing presets, three seeds each:
     the runs must verify against their model and resume commits after the
     last recovery. *)
  List.iter
    (fun protocol ->
      List.iter
        (fun preset ->
          List.iter
            (fun seed ->
              let label =
                Chaos.Audit.protocol_name protocol
                ^ "/"
                ^ Chaos.Nemesis.preset_name preset
                ^ "/seed=" ^ string_of_int seed
              in
              let schedule =
                Chaos.Audit.nemesis_schedule protocol preset ~duration_s:8.0
                  ~seed
              in
              let r =
                audit protocol ~schedule
                  ~failover:(Chaos.Nemesis.requires_failover preset)
                  ~duration_s:8.0 ~seed
              in
              check_verified label r;
              check bool (label ^ ": liveness resumed after recovery") true
                (Harness.liveness_ok r))
            [ 3; 5; 9 ])
        [ Chaos.Nemesis.Leader_kill; Chaos.Nemesis.Rolling_crash ])
    Chaos.Audit.protocols

let test_failover_determinism () =
  (* Elections, retries, and backoff jitter all draw from dedicated seeded
     streams, so a failover run replays byte for byte. *)
  let go nemesis_seed =
    let schedule =
      Chaos.Audit.nemesis_schedule Chaos.Audit.Spanner_rss
        Chaos.Nemesis.Leader_kill ~duration_s:8.0 ~seed:nemesis_seed
    in
    audit Chaos.Audit.Spanner_rss ~schedule ~failover:true ~duration_s:8.0
      ~seed:11
  in
  let a = go 4 and b = go 4 in
  check bool "failover histories byte-identical" true
    (String.equal (Harness.audit_trace a) (Harness.audit_trace b));
  check int "same view changes"
    (counter a "failover.view_changes")
    (counter b "failover.view_changes");
  check int "same rpc retries"
    (counter a "failover.rpc_retries")
    (counter b "failover.rpc_retries");
  check bool "elections actually happened" true
    (counter a "failover.view_changes" > 0);
  check bool "different nemesis seed, different run" true
    (not (String.equal (Harness.audit_trace a) (Harness.audit_trace (go 5))))

let test_spanner_leader_crash_rides_through () =
  (* Crash a Spanner shard-leader site outright mid-run. Without failover
     this wedged every transaction touching its shards; with failover armed
     the followers elect a new leader, rebuild the shard from the
     replicated log, and commits resume. *)
  let victim =
    match Chaos.Audit.deployment Chaos.Audit.Spanner_rss with
    | Chaos.Audit.Spanner_wan c -> c.Spanner.Config.leader_site.(0)
    | Chaos.Audit.Gryff_wan _ -> Alcotest.fail "spanner-rss deploys Gryff"
  in
  let schedule =
    Chaos.Schedule.
      [ at_s 1.5 (Crash [ victim ]); at_s 4.5 (Recover [ victim ]) ]
  in
  let r =
    audit Chaos.Audit.Spanner_rss ~schedule ~failover:true ~duration_s:8.0
      ~seed:13
  in
  check_verified "leader crash" r;
  check bool "commits continue after the leader crash" true
    (Harness.liveness_ok ~min_post_quiet:5 r);
  check bool "the crash forced an election" true
    (counter r "failover.view_changes" >= 1)

(* ------------------------------------------------------------------ *)
(* Pinned audit traces: the audit path's seeded schedules across commits *)
(* ------------------------------------------------------------------ *)

(* (protocol, preset, trace digest, explorer coverage signature) for a 6 s
   audit at seed 5 under the preset's nemesis schedule, failover armed when
   the preset requires it, and — for disk-tear — the preset's disk faults
   plus two hot-range migrations. Any change to the seeded schedule of an
   audit run shows up here; re-baseline only for a deliberate semantic
   change, and say so in the same commit. *)
let audit_pins =
  [
    ( "spanner", "partition-heal",
      "0e6f76d9a449bdb7b61e6a19d32c922a",
      "spanner|partition-heal|v0 c0 p6 l0 d0 y0 q0 m0 r0 t5 u2 s0 w7|P" );
    ( "spanner-rss", "partition-heal",
      "2fc0263179d85f7e7bb6cd564de63b54",
      "spanner-rss|partition-heal|v0 c0 p6 l0 d0 y0 q0 m0 r0 t5 u2 s0 w6|P" );
    ( "gryff", "partition-heal",
      "022ef4633db3bdcff39ceb1f924b077f",
      "gryff|partition-heal|v0 c0 p8 l0 d0 y0 q0 m0 r0 t3 u1 s0 w2|P" );
    ( "gryff-rsc", "partition-heal",
      "08b2e4f08a4733b6f1457614291b8dd3",
      "gryff-rsc|partition-heal|v0 c0 p8 l0 d0 y0 q0 m0 r0 t3 u1 s0 w2|P" );
    ( "spanner", "leader-kill",
      "f5d7dc60b57492260e328189927630f6",
      "spanner|leader-kill|v2 c8 p0 l0 d0 y0 q5 m0 r0 t4 u0 s0 w4|P" );
    ( "spanner-rss", "leader-kill",
      "c8fde92ecd28ed4b7ace9c70a04a0a23",
      "spanner-rss|leader-kill|v2 c8 p0 l0 d0 y0 q5 m0 r0 t4 u0 s0 w7|P" );
    ( "gryff", "leader-kill",
      "da80fa235c1e74307f05f8f534490a19",
      "gryff|leader-kill|v0 c9 p0 l0 d0 y0 q0 m0 r0 t0 u0 s0 w3|P" );
    ( "gryff-rsc", "leader-kill",
      "0916cb90e589d22e352a459d6c7512ed",
      "gryff-rsc|leader-kill|v0 c9 p0 l0 d0 y0 q0 m0 r0 t0 u0 s0 w2|P" );
    ( "spanner-rss", "disk-tear",
      "424a73afdc7460e537040dcc36262c78",
      "spanner-rss|disk-tear|v2 c8 p0 l0 d0 y0 q5 m3 r5 t4 u0 s3 w8|P" );
  ]

let test_audit_pins () =
  List.iter
    (fun (proto, preset, digest, signature) ->
      let protocol = Option.get (Chaos.Audit.protocol_of_string proto) in
      let preset = Option.get (Chaos.Nemesis.preset_of_string preset) in
      let duration_s = 6.0 and seed = 5 in
      let env =
        Harness.Env.(
          default
          |> with_chaos
               (Chaos.Audit.nemesis_schedule protocol preset ~duration_s ~seed)
          |> with_failover (Chaos.Nemesis.requires_failover preset))
      in
      let env =
        match Chaos.Nemesis.disk_spec preset with
        | None -> env
        | Some spec ->
          Harness.Env.(
            env
            |> with_disk_faults (Chaos.Audit.default_disk_faults ~spec ~seed ())
            |> with_reshard
                 (Harness.audit_migrations protocol
                    ~n_keys:(Harness.audit_keys protocol) 2))
      in
      let o =
        Explore.Exec.assess ~protocol ~preset
          (Harness.audit ~env protocol ~duration_s ~seed ())
      in
      let label = proto ^ "/" ^ Chaos.Nemesis.preset_name preset in
      check Alcotest.string (label ^ ": trace digest") digest
        o.Explore.Exec.trace_digest;
      check Alcotest.string (label ^ ": coverage signature") signature
        o.Explore.Exec.signature)
    audit_pins

(* ------------------------------------------------------------------ *)
(* The chaos-run recipe: a preset becomes an audit environment          *)
(* ------------------------------------------------------------------ *)

let spanner_protocol = function
  | Chaos.Audit.Spanner_strict | Chaos.Audit.Spanner_rss -> true
  | Chaos.Audit.Gryff_lin | Chaos.Audit.Gryff_rsc -> false

(* The recipe's rules, spelled out per preset rather than read back from
   Chaos.Nemesis: which presets arm failover, move placement, and carry a
   tuned disk-fault mix. *)
let failover_presets =
  [ "leader-kill"; "rolling-crash"; "reshard"; "hot-split"; "disk-tear";
    "bit-rot"; "torn-migration" ]

let reshard_presets = [ "reshard"; "hot-split"; "torn-migration" ]
let disk_presets = [ "disk-tear"; "bit-rot"; "torn-migration" ]

let test_recipe_table () =
  let duration_s = 4.0 and nemesis_seed = 3 in
  List.iter
    (fun protocol ->
      List.iter
        (fun (name, preset) ->
          let label = Chaos.Audit.protocol_name protocol ^ "/" ^ name in
          let env ?disk_rate ?n_keys () =
            Harness.Env.of_preset ?disk_rate ?n_keys protocol preset ~duration_s
              ~nemesis_seed
          in
          let e = env () in
          check bool (label ^ ": schedule") true
            (e.Harness.Env.chaos
            = Some
                (Chaos.Audit.nemesis_schedule protocol preset ~duration_s
                   ~seed:nemesis_seed));
          check bool (label ^ ": failover") (List.mem name failover_presets)
            e.Harness.Env.failover;
          (* Migrations: two, of the hot eighth, only on Spanner. *)
          let migrations n_keys =
            if spanner_protocol protocol && List.mem name reshard_presets then
              List.map
                (fun (rs_at, rs_dst) ->
                  { Harness.rs_at; rs_lo = 0; rs_hi = n_keys / 8; rs_dst;
                    rs_no_fence = false })
                [ (0.30, 1); (0.55, 2) ]
            else []
          in
          check bool (label ^ ": migrations") true
            (e.Harness.Env.reshard = migrations (Harness.audit_keys protocol));
          check bool (label ^ ": migrations sized by n_keys") true
            ((env ~n_keys:64 ()).Harness.Env.reshard = migrations 64);
          (* Disk faults: the tuned mix by default, none at rate 0, the
             tuned (or default) mix scaled otherwise — always seeded by the
             nemesis seed. *)
          let disk ?disk_rate () =
            Option.map
              (fun df ->
                check int (label ^ ": disk seed") nemesis_seed
                  df.Chaos.Audit.df_seed;
                check bool (label ^ ": integrity on") true
                  df.Chaos.Audit.df_integrity;
                df.Chaos.Audit.df_spec)
              (env ?disk_rate ()).Harness.Env.disk_faults
          in
          let tuned = Chaos.Nemesis.disk_spec preset in
          check bool (label ^ ": tuned disk spec") (List.mem name disk_presets)
            (tuned <> None);
          check bool (label ^ ": default disk faults") true (disk () = tuned);
          check bool (label ^ ": rate 0 disarms") true
            (disk ~disk_rate:0.0 () = None);
          check bool (label ^ ": rate scales") true
            (disk ~disk_rate:0.5 ()
            = Some
                (Sim.Durable.Faults.scale 0.5
                   (Option.value tuned
                      ~default:Sim.Durable.Faults.default_spec)));
          (* Nothing else is touched. *)
          let d = Harness.Env.default in
          check bool (label ^ ": rest is default") true
            (e.Harness.Env.check = d.Harness.Env.check
            && e.Harness.Env.batching = None && e.Harness.Env.flow = None
            && e.Harness.Env.deadline_us = None))
        Chaos.Nemesis.presets)
    Chaos.Audit.protocols

(* The schedule is sized from the audit deployment; it must match what the
   hand-kept literals produced: three sites, leaders [0; 1; 2] and
   ε = 10 ms for Spanner's wan3, five leaderless sites without TrueTime for
   Gryff's wan5. *)
let test_recipe_schedule_sizing () =
  List.iter
    (fun protocol ->
      let n_sites, leaders, epsilon_us =
        if spanner_protocol protocol then (3, [ 0; 1; 2 ], 10_000)
        else (5, [], 0)
      in
      List.iter
        (fun (name, preset) ->
          List.iter
            (fun seed ->
              check bool
                (Fmt.str "%s/%s/seed=%d" (Chaos.Audit.protocol_name protocol)
                   name seed)
                true
                (Chaos.Audit.nemesis_schedule protocol preset ~duration_s:6.0
                   ~seed
                = Chaos.Nemesis.generate preset ~n_sites ~leaders ~epsilon_us
                    ~duration_us:(Sim.Engine.sec 6.0) ~seed ()))
            [ 1; 7; 42 ])
        Chaos.Nemesis.presets)
    Chaos.Audit.protocols

(* A superseded attempt's lost release once wedged its own retry forever
   (wound-wait never wounds an equal priority): spanner-rss under the
   reshard preset at seed 7 ran past 5 x 10^6 simulated seconds. Built by
   the recipe it must verify, stay live and drain soon after the horizon. *)
let test_recipe_reshard_drains () =
  let protocol = Chaos.Audit.Spanner_rss and duration_s = 5.0 and seed = 7 in
  let env =
    Harness.Env.of_preset protocol Chaos.Nemesis.Reshard ~duration_s
      ~nemesis_seed:seed
  in
  let r = Harness.audit ~env protocol ~duration_s ~seed () in
  check_verified "reshard/seed=7" r;
  check bool "liveness resumed after heal" true (Harness.liveness_ok r);
  check bool "migrations ran" true (counter r "place.migrations" >= 1);
  check bool "drained within 30 s of the horizon" true
    (r.Harness.Run.duration_us <= Sim.Engine.sec (duration_s +. 30.0))

let suites =
  [
    ( "chaos.recipe",
      [
        Alcotest.test_case "every protocol x preset arms its faults" `Quick
          test_recipe_table;
        Alcotest.test_case "schedules sized from the deployment" `Quick
          test_recipe_schedule_sizing;
        Alcotest.test_case "spanner-rss reshard seed 7 drains" `Quick
          test_recipe_reshard_drains;
      ] );
    ( "chaos.net",
      [
        Alcotest.test_case "asymmetric block" `Quick test_net_asymmetric_block;
        Alcotest.test_case "probabilistic loss" `Quick test_net_loss;
        Alcotest.test_case "duplication" `Quick test_net_duplication;
        Alcotest.test_case "drop-cause precedence" `Quick
          test_net_drop_cause_precedence;
        Alcotest.test_case "crash and recover" `Quick test_net_crash_recover;
        Alcotest.test_case "delay spike and reorder" `Quick
          test_net_extra_delay_and_reorder;
        Alcotest.test_case "partition and heal" `Quick test_net_partition_heal;
      ] );
    ( "chaos.schedule",
      [
        Alcotest.test_case "helpers" `Quick test_schedule_helpers;
        Alcotest.test_case "apply timing" `Quick test_schedule_apply_timing;
        Alcotest.test_case "epsilon inflation" `Quick test_schedule_epsilon;
      ] );
    ( "chaos.nemesis",
      [
        Alcotest.test_case "seeded determinism" `Quick test_nemesis_deterministic;
        Alcotest.test_case "preset shapes" `Quick test_nemesis_presets_shape;
        Alcotest.test_case "protected sites" `Quick test_nemesis_protect;
      ] );
    ( "chaos.audit",
      [
        Alcotest.test_case "battery: 5 schedules x 4 protocols" `Quick
          test_audit_battery;
        Alcotest.test_case "run-twice determinism" `Quick test_audit_determinism;
        Alcotest.test_case "spanner quorum ride-through" `Quick
          test_spanner_quorum_ride_through;
        Alcotest.test_case "gryff quorum ride-through" `Quick
          test_gryff_quorum_ride_through;
        Alcotest.test_case "stale-read controls" `Quick test_stale_read_controls;
        Alcotest.test_case "unsafe no-deps control" `Quick
          test_unsafe_no_deps_control;
        Alcotest.test_case "rpc.backoff events are live" `Quick
          test_rpc_backoff_events_are_live;
      ] );
    ( "chaos.failover",
      [
        Alcotest.test_case "battery: 2 presets x 4 protocols x 3 seeds" `Quick
          test_failover_battery;
        Alcotest.test_case "run-twice determinism" `Quick
          test_failover_determinism;
        Alcotest.test_case "spanner leader-crash ride-through" `Quick
          test_spanner_leader_crash_rides_through;
      ] );
    ( "chaos.pins",
      [
        Alcotest.test_case "audit traces and signatures pinned" `Quick
          test_audit_pins;
      ] );
  ]
