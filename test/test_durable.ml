(* Tests for the durable-storage layer: the growable log against a list
   oracle, framed integrity verification, the seeded storage-fault model,
   the scrub pass, and the recovery repair policy — truncate a suspect
   suffix, quarantine + peer state transfer, fail-stop when no peer holds
   the committed prefix — driven end to end through Replication.Group and
   the chaos audits. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let qt = QCheck_alcotest.to_alcotest

let spec ?(tear = 0.0) ?(corrupt = 0.0) ?(stale = 0.0) ?(lost = 0.0) () =
  {
    Sim.Durable.Faults.tear_prob = tear;
    max_tear = 3;
    corrupt_prob = corrupt;
    stale_prob = stale;
    max_stale = 3;
    lost_int_prob = lost;
  }

let with_ctl ?integrity ~spec ~seed f =
  let ctl = Sim.Durable.Faults.install ~spec ?integrity ~seed () in
  Fun.protect ~finally:(fun () -> Sim.Durable.Faults.retire ctl) @@ fun () ->
  f ctl

(* ------------------------------------------------------------------ *)
(* Log vs list oracle                                                  *)
(* ------------------------------------------------------------------ *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun v -> `Append v) (int_bound 1_000));
        (2, map (fun n -> `Truncate n) (int_bound 40));
        (1, map (fun l -> `Replace l) (list_size (int_bound 12) (int_bound 1_000)));
      ])

let pp_op = function
  | `Append v -> Printf.sprintf "append %d" v
  | `Truncate n -> Printf.sprintf "truncate %d" n
  | `Replace l ->
    Printf.sprintf "replace [%s]" (String.concat ";" (List.map string_of_int l))

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let prop_log_matches_oracle =
  QCheck.Test.make ~name:"log ops match list oracle (incl. byte accounting)"
    ~count:200 ops_arb (fun ops ->
      let store = Sim.Durable.create ~site:0 ~name:"oracle" in
      let l = Sim.Durable.log store in
      let model = ref [] in
      let appends = ref 0 and bytes = ref 0 in
      List.iter
        (fun op ->
          (match op with
          | `Append v ->
            ignore (Sim.Durable.append l v);
            incr appends;
            bytes := !bytes + 64;
            model := !model @ [ v ]
          | `Truncate n ->
            Sim.Durable.truncate l n;
            model := List.filteri (fun i _ -> i < n) !model
          | `Replace vs ->
            Sim.Durable.replace l vs;
            appends := !appends + List.length vs;
            bytes := !bytes + (64 * List.length vs);
            model := vs);
          if Sim.Durable.to_list l <> !model then
            QCheck.Test.fail_reportf "contents diverge after %s" (pp_op op);
          if Sim.Durable.length l <> List.length !model then
            QCheck.Test.fail_reportf "length diverges after %s" (pp_op op))
        ops;
      List.iteri
        (fun i v ->
          if Sim.Durable.get l i <> v then
            QCheck.Test.fail_reportf "get %d diverges" i)
        !model;
      Sim.Durable.appends store = !appends
      && Sim.Durable.bytes_written store = !bytes
      && Sim.Durable.read_verified l = Sim.Durable.Ok)

let test_bad_indices () =
  let store = Sim.Durable.create ~site:0 ~name:"bounds" in
  let l = Sim.Durable.log store in
  ignore (Sim.Durable.append l 7);
  Alcotest.check_raises "negative truncate"
    (Invalid_argument "Durable.truncate: negative length") (fun () ->
      Sim.Durable.truncate l (-1));
  Alcotest.check_raises "negative get"
    (Invalid_argument "Durable.get: index out of bounds") (fun () ->
      ignore (Sim.Durable.get l (-1)));
  Alcotest.check_raises "get past end"
    (Invalid_argument "Durable.get: index out of bounds") (fun () ->
      ignore (Sim.Durable.get l 1));
  (* truncate past the end is a no-op, not an error *)
  Sim.Durable.truncate l 5;
  check int "still one entry" 1 (Sim.Durable.length l)

(* ------------------------------------------------------------------ *)
(* Framing: each fault class is detected and classified               *)
(* ------------------------------------------------------------------ *)

let test_torn_tail_detected () =
  with_ctl ~spec:(spec ~tear:1.0 ()) ~seed:7 @@ fun ctl ->
  let store = Sim.Durable.create ~site:0 ~name:"tear" in
  let l = Sim.Durable.log store in
  for i = 0 to 9 do
    ignore (Sim.Durable.append l i)
  done;
  Sim.Durable.Faults.crash_site ctl 0;
  (match Sim.Durable.read_verified l with
  | Sim.Durable.Torn_tail n ->
    check bool "tail shortened" true (n < 10);
    check int "journal remembers the old length" 10
      (Sim.Durable.journalled_length l);
    check int "verified prefix is the survivors" n
      (List.length (Sim.Durable.verified_prefix l))
  | v -> Alcotest.failf "expected torn tail, got %s" (Sim.Durable.verified_name v));
  Sim.Durable.repair_torn_tail l;
  check bool "repair re-journals" true (Sim.Durable.read_verified l = Sim.Durable.Ok);
  check bool "tear counted" true
    ((Sim.Durable.Faults.stats ctl).Sim.Durable.Faults.fs_torn > 0)

let test_misdirected_write_detected () =
  with_ctl ~spec:(spec ~corrupt:1.0 ()) ~seed:7 @@ fun ctl ->
  let store = Sim.Durable.create ~site:0 ~name:"misdirect" in
  let l = Sim.Durable.log store in
  for i = 0 to 9 do
    ignore (Sim.Durable.append l (100 + i))
  done;
  Sim.Durable.Faults.crash_site ctl 0;
  (match Sim.Durable.read_verified l with
  | Sim.Durable.Corrupt i ->
    check bool "corruption is mid-log" true (i >= 0 && i < 10);
    check int "length unchanged (frame is self-consistent)" 10
      (Sim.Durable.length l);
    check int "verified prefix stops at the bad frame" i
      (List.length (Sim.Durable.verified_prefix l));
    (* dropping the suspect suffix restores integrity *)
    Sim.Durable.truncate l i;
    check bool "clean after truncation" true
      (Sim.Durable.read_verified l = Sim.Durable.Ok)
  | v -> Alcotest.failf "expected corrupt, got %s" (Sim.Durable.verified_name v))

let test_stale_resurface_detected () =
  with_ctl ~spec:(spec ~stale:1.0 ()) ~seed:7 @@ fun ctl ->
  let store = Sim.Durable.create ~site:0 ~name:"stale" in
  let l = Sim.Durable.log store in
  for i = 0 to 9 do
    ignore (Sim.Durable.append l i)
  done;
  Sim.Durable.truncate l 5;
  Sim.Durable.Faults.crash_site ctl 0;
  check bool "resurfaced entries lengthen the log" true (Sim.Durable.length l > 5);
  (match Sim.Durable.read_verified l with
  | Sim.Durable.Corrupt i -> check int "flagged at the journalled length" 5 i
  | v -> Alcotest.failf "expected corrupt, got %s" (Sim.Durable.verified_name v));
  Sim.Durable.truncate l 5;
  check bool "clean after truncation" true
    (Sim.Durable.read_verified l = Sim.Durable.Ok)

let test_lost_register_write () =
  with_ctl ~spec:(spec ~lost:1.0 ()) ~seed:7 @@ fun ctl ->
  let store = Sim.Durable.create ~site:0 ~name:"regs" in
  Sim.Durable.set_int store "view" 1;
  Sim.Durable.set_int store "view" 2;
  Sim.Durable.set_int store "fresh" 9;
  Sim.Durable.Faults.crash_site ctl 0;
  check int "last write lost, previous survives" 1
    (Sim.Durable.get_int store "view" ~default:(-1));
  check int "sole write lost entirely" (-1)
    (Sim.Durable.get_int store "fresh" ~default:(-1));
  check bool "losses counted" true
    ((Sim.Durable.Faults.stats ctl).Sim.Durable.Faults.fs_lost_ints >= 2)

let test_integrity_disabled_is_blind () =
  with_ctl ~integrity:false ~spec:(spec ~corrupt:1.0 ()) ~seed:7 @@ fun ctl ->
  let store = Sim.Durable.create ~site:0 ~name:"blind" in
  let l = Sim.Durable.log store in
  for i = 0 to 9 do
    ignore (Sim.Durable.append l i)
  done;
  Sim.Durable.Faults.crash_site ctl 0;
  check bool "damage landed" true
    ((Sim.Durable.Faults.stats ctl).Sim.Durable.Faults.fs_corrupt > 0);
  check bool "blind store verifies anyway" true
    (Sim.Durable.read_verified l = Sim.Durable.Ok)

(* ------------------------------------------------------------------ *)
(* Fault model: seeded determinism                                     *)
(* ------------------------------------------------------------------ *)

let damage_fingerprint ~seed =
  with_ctl ~spec:(spec ~tear:0.5 ~corrupt:0.5 ~stale:0.5 ~lost:0.5 ()) ~seed
  @@ fun ctl ->
  let mk site name =
    let store = Sim.Durable.create ~site ~name in
    let l = Sim.Durable.log store in
    for i = 0 to 19 do
      ignore (Sim.Durable.append l (i * 7))
    done;
    Sim.Durable.truncate l 15;
    Sim.Durable.set_int store "view" 3;
    (store, l)
  in
  let stores = [ mk 0 "a"; mk 0 "b"; mk 1 "c" ] in
  Sim.Durable.Faults.crash_site ctl 0;
  Sim.Durable.Faults.crash_site ctl 1;
  let s = Sim.Durable.Faults.stats ctl in
  ( ( s.Sim.Durable.Faults.fs_torn,
      s.Sim.Durable.Faults.fs_corrupt,
      s.Sim.Durable.Faults.fs_resurfaced,
      s.Sim.Durable.Faults.fs_lost_ints ),
    List.map
      (fun (store, l) ->
        ( Sim.Durable.to_list l,
          Sim.Durable.verified_name (Sim.Durable.read_verified l),
          Sim.Durable.get_int store "view" ~default:(-1) ))
      stores )

let test_fault_model_deterministic () =
  let a = damage_fingerprint ~seed:11 in
  let b = damage_fingerprint ~seed:11 in
  check bool "same seed, same damage" true (a = b)

(* ------------------------------------------------------------------ *)
(* Scrub                                                               *)
(* ------------------------------------------------------------------ *)

let test_scrub_flags_and_repairs () =
  with_ctl ~spec:(spec ~corrupt:1.0 ()) ~seed:3 @@ fun ctl ->
  let store = Sim.Durable.create ~site:0 ~name:"scrubbed" in
  let l = Sim.Durable.log store in
  for i = 0 to 9 do
    ignore (Sim.Durable.append l i)
  done;
  Sim.Durable.Faults.crash_site ctl 0;
  let repaired = ref 0 in
  Sim.Durable.set_repairer l (fun v ->
      incr repaired;
      match v with
      | Sim.Durable.Corrupt i -> Sim.Durable.truncate l i
      | Sim.Durable.Torn_tail _ -> Sim.Durable.repair_torn_tail l
      | Sim.Durable.Ok -> ());
  let flags = ref 0 in
  let scanned, flagged = Sim.Durable.scrub store ~on_flag:(fun _ -> incr flags) in
  check int "scanned the whole log" 10 scanned;
  check int "one log flagged" 1 flagged;
  check int "on_flag fired" 1 !flags;
  check int "repairer invoked" 1 !repaired;
  let _, again = Sim.Durable.scrub store ~on_flag:(fun _ -> ()) in
  check int "clean after repair" 0 again

let test_scrub_pass_background () =
  with_ctl ~spec:(spec ~corrupt:1.0 ()) ~seed:3 @@ fun ctl ->
  let engine = Sim.Engine.create () in
  let station = Sim.Station.create engine ~service_time_us:10 in
  let store = Sim.Durable.create ~site:0 ~name:"latent" in
  let l = Sim.Durable.log store in
  for i = 0 to 9 do
    ignore (Sim.Durable.append l i)
  done;
  Sim.Durable.set_repairer l (fun v ->
      match v with
      | Sim.Durable.Corrupt i -> Sim.Durable.truncate l i
      | Sim.Durable.Torn_tail _ -> Sim.Durable.repair_torn_tail l
      | Sim.Durable.Ok -> ());
  Sim.Durable.Faults.crash_site ctl 0;
  let st =
    Sim.Scrub.start engine ~station ~ctl ~period_us:1_000 ~until_us:20_000 ()
  in
  Sim.Engine.run engine;
  check bool "scans ran" true (st.Sim.Scrub.passes >= 1);
  check bool "latent damage flagged" true (st.Sim.Scrub.flagged >= 1);
  check bool "repairer healed the log" true
    (Sim.Durable.read_verified l = Sim.Durable.Ok)

(* ------------------------------------------------------------------ *)
(* Recovery repair policy through Replication.Group + chaos audits      *)
(* ------------------------------------------------------------------ *)

(* Crash the shard-0 leader together with one follower and bring the
   follower back first: its log carries a misdirected frame and no live
   leader can heal it before the election. The intact third member must win
   the election, quarantined members must repair via peer state transfer,
   and the history must verify. *)
let repair_schedule =
  Chaos.Schedule.
    [
      at_s 2.0 (Crash [ 0; 1 ]);
      at_s 2.2 (Recover [ 1 ]);
      at_s 4.0 (Recover [ 0 ]);
    ]

(* Crash all three sites and crash-cycle the followers while the shard-0
   leader stays down: every surviving log is damaged, so whatever the
   election adopts is corrupt. With checksums this must fail-stop; without
   them recovery silently replays the garbage. *)
let lost_prefix_schedule =
  Chaos.Schedule.
    [
      at_s 2.0 (Crash [ 0; 1; 2 ]);
      at_s 2.06 (Recover [ 1; 2 ]);
      at_s 2.12 (Crash [ 1; 2 ]);
      at_s 2.18 (Recover [ 1; 2 ]);
      at_s 2.24 (Crash [ 1; 2 ]);
      at_s 2.3 (Recover [ 1; 2 ]);
      at_s 2.36 (Crash [ 1; 2 ]);
      at_s 2.42 (Recover [ 1; 2 ]);
      at_s 3.5 (Recover [ 0 ]);
    ]

(* A Spanner-RSS audit with failover armed and [df]'s disk faults. *)
let disk_audit ?n_slots ~schedule df ~duration_s ~seed =
  Harness.audit ?n_slots
    ~env:
      {
        Harness.Env.default with
        chaos = Some schedule;
        failover = true;
        disk_faults = df;
      }
    Chaos.Audit.Spanner_rss ~duration_s ~seed ()

let check_verified what r =
  match r.Harness.Run.check with
  | Harness.Run.Pass -> ()
  | Harness.Run.Fail m | Harness.Run.Unknown m ->
    Alcotest.failf "history failed under %s: %s" what m

let test_torn_tail_recovery_converges () =
  let seed = 5 in
  let df =
    Chaos.Audit.default_disk_faults ~spec:(spec ~tear:1.0 ()) ~seed ()
  in
  let schedule =
    Chaos.Audit.nemesis_schedule Chaos.Audit.Spanner_rss
      Chaos.Nemesis.Rolling_crash ~duration_s:6.0 ~seed
  in
  let r = disk_audit ~n_slots:6 ~schedule (Some df) ~duration_s:6.0 ~seed in
  let c = Harness.Run.counter r in
  check_verified "torn tails" r;
  check bool "tails torn" true (c "durable.fault.torn" > 0);
  check bool "torn suffixes repaired" true (c "durable.repair.torn" > 0);
  check int "no member left quarantined" 0 (c "durable.repair.unrepaired")

let test_corruption_quarantined_and_peer_repaired () =
  let seed = 42 in
  let df =
    Chaos.Audit.default_disk_faults ~spec:(spec ~corrupt:1.0 ()) ~seed ()
  in
  let r =
    disk_audit ~schedule:repair_schedule (Some df) ~duration_s:6.0 ~seed
  in
  let c = Harness.Run.counter r in
  check_verified "mid-log corruption" r;
  check bool "writes misdirected" true (c "durable.fault.corrupt" > 0);
  check bool "members quarantined" true (c "durable.repair.quarantined" > 0);
  check bool "peer state transfer repaired them" true
    (c "durable.repair.peer" > 0);
  check int "no member left quarantined" 0 (c "durable.repair.unrepaired")

let test_integrity_disabled_control_caught () =
  (* Same damage against checksum-blind stores: recovery replays a
     misdirected frame and the consistency checker (or the rebuild's own
     invariants) must flag it. A benign seed may corrupt only frames nobody
     rereads, so scan a few workload seeds — deterministically. *)
  let caught = ref None in
  let seed = ref 42 in
  while !caught = None && !seed < 48 do
    let df =
      {
        (Chaos.Audit.default_disk_faults ~spec:(spec ~corrupt:1.0 ()) ~seed:!seed
           ())
        with
        Chaos.Audit.df_integrity = false;
      }
    in
    (match
       disk_audit ~schedule:lost_prefix_schedule (Some df) ~duration_s:10.0
         ~seed:!seed
     with
    | r -> (
      match r.Harness.Run.check with
      | Harness.Run.Fail m | Harness.Run.Unknown m -> caught := Some m
      | Harness.Run.Pass -> ())
    | exception e -> caught := Some (Printexc.to_string e));
    incr seed
  done;
  match !caught with
  | Some _ -> ()
  | None -> Alcotest.fail "blind corruption was never caught"

let test_fail_stop_when_no_peer_has_prefix () =
  (* Group-level: every member's log is damaged below the durable commit
     count, so no quorum can cover it. The group must halt (quarantined,
     not serving) rather than elect a truncated log and serve it. *)
  with_ctl ~spec:(spec ~corrupt:1.0 ()) ~seed:9 @@ fun ctl ->
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 1 in
  let rtt =
    [| [| 0.2; 20.0; 40.0 |]; [| 20.0; 0.2; 30.0 |]; [| 40.0; 30.0; 0.2 |] |]
  in
  let net = Sim.Net.create engine ~rng ~rtt_ms:rtt ~jitter:0.0 () in
  let g = Replication.Group.create net ~leader_site:0 ~replica_sites:[ 1; 2 ] () in
  Replication.Group.enable_failover g ~until_us:(Sim.Engine.sec 5.0) ();
  for i = 0 to 19 do
    Sim.Engine.schedule engine
      ~after:(10_000 + (i * 30_000))
      (fun () -> Replication.Group.replicate g i (fun () -> ()))
  done;
  Sim.Engine.schedule engine ~after:1_500_000 (fun () ->
      List.iter (Sim.Net.set_down net) [ 0; 1; 2 ];
      List.iter (Sim.Durable.Faults.crash_site ctl) [ 0; 1; 2 ]);
  Sim.Engine.schedule engine ~after:1_600_000 (fun () ->
      Sim.Net.set_up net 1;
      Sim.Net.set_up net 2);
  Sim.Engine.schedule engine ~after:2_500_000 (fun () -> Sim.Net.set_up net 0);
  Sim.Engine.run engine;
  let s = Replication.Group.stats g in
  check bool "members quarantined" true
    (s.Replication.Group.corrupt_quarantined >= 2);
  check bool "quarantine never cleared" true (s.Replication.Group.unrepaired >= 1);
  check bool "group refuses to serve" true (not (Replication.Group.serving g))

let test_armed_but_undamaged_is_byte_identical () =
  (* Installing the fault control and the scrub pass without any crash must
     not perturb the schedule: the history trace is byte-identical to a run
     with no storage-fault machinery at all. *)
  let run df = disk_audit ~n_slots:6 ~schedule:[] df ~duration_s:4.0 ~seed:21 in
  let plain = run None in
  let armed = run (Some (Chaos.Audit.default_disk_faults ~seed:21 ())) in
  check bool "trace digests equal" true
    (Digest.string (Harness.audit_trace plain)
    = Digest.string (Harness.audit_trace armed));
  check int "no damage recorded" 0
    (Harness.Run.counter armed "durable.fault.crashes")

let suites =
  [
    ( "sim.durable",
      [
        qt prop_log_matches_oracle;
        Alcotest.test_case "bad indices raise" `Quick test_bad_indices;
      ] );
    ( "sim.durable.faults",
      [
        Alcotest.test_case "torn tail detected" `Quick test_torn_tail_detected;
        Alcotest.test_case "misdirected write detected" `Quick
          test_misdirected_write_detected;
        Alcotest.test_case "stale resurface detected" `Quick
          test_stale_resurface_detected;
        Alcotest.test_case "lost register write" `Quick test_lost_register_write;
        Alcotest.test_case "integrity-disabled store is blind" `Quick
          test_integrity_disabled_is_blind;
        Alcotest.test_case "seeded damage is deterministic" `Quick
          test_fault_model_deterministic;
        Alcotest.test_case "scrub flags and repairs" `Quick
          test_scrub_flags_and_repairs;
        Alcotest.test_case "background scrub pass" `Quick
          test_scrub_pass_background;
      ] );
    ( "durable.recovery",
      [
        Alcotest.test_case "torn-tail recovery converges" `Slow
          test_torn_tail_recovery_converges;
        Alcotest.test_case "corruption quarantined, peer repaired" `Slow
          test_corruption_quarantined_and_peer_repaired;
        Alcotest.test_case "integrity-off control caught" `Slow
          test_integrity_disabled_control_caught;
        Alcotest.test_case "fail-stop when no peer has the prefix" `Quick
          test_fail_stop_when_no_peer_has_prefix;
        Alcotest.test_case "armed but undamaged is byte-identical" `Slow
          test_armed_but_undamaged_is_byte_identical;
      ] );
  ]
