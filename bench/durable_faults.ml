(* Storage-fault battery: every protocol under every disk-fault preset.

   For each (protocol, preset, seed) the audit driver runs with a
   Sim.Durable.Faults control armed: nemesis crashes tear log tails,
   misdirect writes mid-log and resurface stale sectors, the background
   scrub pass hunts latent damage, and the repair policy (truncate /
   quarantine + peer state transfer) must bring every member back. Gryff
   keeps no durable stores, so its runs prove the battery degrades cleanly
   to plain crash schedules.

   Two controls ride along:

     repeat     -- one faulted run repeated; its history digest must match
                   byte for byte (fault placement is seeded, so disk chaos
                   must stay inside the deterministic schedule)
     integrity  -- the same damage against checksum-blind stores
                   (df_integrity = false): recovery silently replays
                   misdirected writes, and the consistency checker (or the
                   shard rebuild's own invariants) must flag the result

   Output is machine-readable JSON (default BENCH_durable.json):

     dune exec bench/durable_faults.exe --             # full battery
     dune exec bench/durable_faults.exe -- --smoke     # CI size

   Exit status 1 unless: every faulted run passes the checker, resumes
   liveness after heal, and ends with zero unrepaired quarantined members;
   the repeated run is byte-identical; and the integrity-disabled control
   is caught. *)

let presets =
  [ Chaos.Nemesis.Disk_tear; Chaos.Nemesis.Bit_rot; Chaos.Nemesis.Torn_migration ]

(* A named run and its host CPU seconds. *)
type timed = { name : string; run : Harness.Run.t; cpu_s : float }

(* MD5 of the canonical history trace. *)
let digest m = Digest.to_hex (Digest.string (Harness.audit_trace m.run))

(* Every preset here arms failover and its tuned disk damage; torn-migration
   also live-migrates. [~disk_rate:1.0] keeps disk faults armed even for a
   preset without a tuned mix. *)
let measure ~name ~protocol ~preset ~duration_s ~seed () =
  let env =
    Harness.Env.of_preset ~disk_rate:1.0 protocol preset ~duration_s
      ~nemesis_seed:seed
  in
  let run, cpu_s =
    Report.timed (fun () -> Harness.audit ~env protocol ~duration_s ~seed ())
  in
  { name; run; cpu_s }

(* The broken-control configuration: checksum-blind stores under a crafted
   crash schedule that forces a corrupt log to win an election. Crash all
   three sites at once, then crash-cycle the two followers while the shard-0
   leader stays down: each cycle plants another misdirected frame in the
   followers' logs, no appends happen (no leader), so when the lease expires
   the view-1 candidate's own blind-corrupt log ties or beats the other
   contribution and is installed cluster-wide. The rebuild then replays the
   misdirected frames: either the consistency checker flags a lost write
   (stale / nil read), or the rebuild itself trips over the garbage
   (non-monotonic commit timestamps) — both count as "caught". With
   integrity on, the same schedule quarantines every damaged member and the
   group fail-stops instead (see test/test_durable.ml). A benign seed may
   misdirect only frames nobody rereads, so the control scans workload seeds
   until one is caught (bounded, deterministic). *)
let control_schedule =
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

let control_spec =
  {
    Sim.Durable.Faults.tear_prob = 0.0;
    (* a torn tail would just shorten the log out of election contention *)
    max_tear = 1;
    corrupt_prob = 1.0;
    stale_prob = 0.0;
    max_stale = 1;
    lost_int_prob = 0.0;
  }

let integrity_control ~base_seed ~max_tries =
  let try_seed seed =
    let df =
      {
        (Chaos.Audit.default_disk_faults ~spec:control_spec ~seed ()) with
        Chaos.Audit.df_integrity = false;
      }
    in
    let name = Printf.sprintf "integrity-off/seed=%d" seed in
    match
      Harness.audit
        ~env:
          Harness.Env.(
            default |> with_chaos control_schedule |> with_disk_faults df
            |> with_failover true)
        Chaos.Audit.Spanner_rss ~duration_s:10.0 ~seed ()
    with
    | r -> (
      match r.Harness.Run.check with
      | Harness.Run.Pass -> None
      | Harness.Run.Fail m | Harness.Run.Unknown m -> Some (name, m))
    | exception e -> Some (name, "replay raised: " ^ Printexc.to_string e)
  in
  let rec scan i =
    if i >= max_tries then None
    else
      match try_seed (base_seed + i) with
      | Some caught -> Some caught
      | None -> scan (i + 1)
  in
  scan 0

let run_json m =
  let open Obs.Json in
  Report.(
    run_json m.run
      [ Value ("name", Str m.name); Verdict;
        Value ("live", Bool (Harness.liveness_ok m.run));
        Value ("digest", Str (digest m)); Counter ("n_ops", "op.history_records");
        Value ("cpu_s", Num m.cpu_s); Counter ("disk_torn", "durable.fault.torn");
        Counter ("disk_corrupt", "durable.fault.corrupt");
        Counter ("disk_resurfaced", "durable.fault.resurfaced");
        Counter ("disk_lost_ints", "durable.fault.lost_ints");
        Counter ("disk_crashes", "durable.fault.crashes");
        Counter ("scrub_passes", "durable.scrub.passes");
        Counter ("scrub_flagged", "durable.scrub.flagged");
        Counter ("repairs_torn", "durable.repair.torn");
        Counter ("repairs_quarantined", "durable.repair.quarantined");
        Counter ("repairs_peer", "durable.repair.peer");
        Counter ("place_repairs", "durable.repair.place");
        Counter ("unrepaired", "durable.repair.unrepaired") ])

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let cli = Report.cli "durable" in
  let smoke = cli.Report.smoke and base_seed = Option.get cli.Report.seed in
  let duration_s = if smoke then 6.0 else 10.0 in
  let n_seeds = if smoke then 1 else 3 in
  let seeds = List.init n_seeds (fun i -> base_seed + i) in
  Printf.printf
    "== durable-fault battery (%d protocols x %d presets x %d seeds, %.0f \
     sim-s) ==\n\
     %!"
    (List.length Chaos.Audit.protocols)
    (List.length presets) n_seeds duration_s;
  let report m =
    let c = Harness.Run.counter m.run in
    Printf.printf
      "   %-36s verdict=%-5s live=%b  damage(torn=%d corrupt=%d stale=%d)  \
       repairs(torn=%d quar=%d peer=%d place=%d)  unrepaired=%d\n\
       %!"
      m.name
      (Report.verdict m.run.Harness.Run.check)
      (Harness.liveness_ok m.run) (c "durable.fault.torn")
      (c "durable.fault.corrupt") (c "durable.fault.resurfaced")
      (c "durable.repair.torn") (c "durable.repair.quarantined")
      (c "durable.repair.peer") (c "durable.repair.place")
      (c "durable.repair.unrepaired")
  in
  let runs =
    List.concat_map
      (fun protocol ->
        List.concat_map
          (fun preset ->
            List.map
              (fun seed ->
                let name =
                  Printf.sprintf "%s/%s/seed=%d"
                    (Chaos.Audit.protocol_name protocol)
                    (Chaos.Nemesis.preset_name preset)
                    seed
                in
                let m = measure ~name ~protocol ~preset ~duration_s ~seed () in
                report m;
                m)
              seeds)
          presets)
      Chaos.Audit.protocols
  in
  (* Determinism: repeat the first faulted run; the history digest must
     match byte for byte. *)
  let first = List.hd runs in
  let repeat =
    measure
      ~name:(first.name ^ "/repeat")
      ~protocol:(List.hd Chaos.Audit.protocols)
      ~preset:(List.hd presets) ~duration_s ~seed:base_seed ()
  in
  let deterministic = digest first = digest repeat in
  Printf.printf "   repeat digest match: %b\n%!" deterministic;
  let control = integrity_control ~base_seed ~max_tries:6 in
  let control_caught = control <> None in
  (match control with
  | Some (name, detail) ->
    Printf.printf "   integrity-off control caught (%s): %s\n%!" name
      (if String.length detail > 120 then String.sub detail 0 120 ^ "..."
       else detail)
  | None -> Printf.printf "   integrity-off control NOT caught\n%!");
  let all_pass =
    List.for_all
      (fun m ->
        Harness.Run.passed m.run && Harness.liveness_ok m.run
        && Harness.Run.counter m.run "durable.repair.unrepaired" = 0)
      runs
  in
  let repaired =
    List.exists
      (fun m ->
        let c = Harness.Run.counter m.run in
        c "durable.repair.torn" + c "durable.repair.peer"
        + c "durable.repair.place"
        > 0)
      runs
  in
  let ok = all_pass && repaired && deterministic && control_caught in
  Printf.printf
    "all runs pass: %b   repairs exercised: %b   deterministic: %b   control \
     caught: %b   ok: %b\n\
     %!"
    all_pass repaired deterministic control_caught ok;
  let open Obs.Json in
  Report.write cli ~schema:"rss-repro/durable/v1" ~ok
    [ ("duration_s", Num duration_s); ("runs", Arr (List.map run_json runs));
      ("all_pass", Bool all_pass); ("repairs_exercised", Bool repaired);
      ("deterministic", Bool deterministic); ("control_caught", Bool control_caught);
      ( "control_detail",
        Str
          (match control with
          | Some (name, detail) -> name ^ ": " ^ detail
          | None -> "not caught") ) ]
