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

type measured = {
  name : string;
  verdict : Harness.Run.verdict;
  live : bool;
  digest : string;  (* MD5 of the canonical history trace *)
  n_ops : int;
  cpu_s : float;
  disk_torn : int;
  disk_corrupt : int;
  disk_resurfaced : int;
  disk_lost_ints : int;
  disk_crashes : int;
  scrub_passes : int;
  scrub_flagged : int;
  repairs_torn : int;
  repairs_quarantined : int;
  repairs_peer : int;
  place_repairs : int;
  unrepaired : int;
}

let disk_faults_for preset ~seed =
  match Chaos.Nemesis.disk_spec preset with
  | Some spec -> Chaos.Audit.default_disk_faults ~spec ~seed ()
  | None -> Chaos.Audit.default_disk_faults ~seed ()

let measure ?disk_faults ~name ~protocol ~preset ~duration_s ~seed () =
  let schedule = Chaos.Audit.nemesis_schedule protocol preset ~duration_s ~seed in
  let disk_faults =
    match disk_faults with Some df -> df | None -> disk_faults_for preset ~seed
  in
  let n_migrations = if Chaos.Nemesis.requires_reshard preset then 2 else 0 in
  let env =
    Harness.Env.(
      default |> with_chaos schedule |> with_disk_faults disk_faults
      |> with_failover true
      |> with_reshard
           (Harness.audit_migrations ~n_keys:(Harness.audit_keys protocol)
              n_migrations))
  in
  let t0 = Sys.time () in
  let r = Harness.audit ~env protocol ~duration_s ~seed () in
  let cpu_s = Sys.time () -. t0 in
  let c = Harness.Run.counter r in
  {
    name;
    verdict = r.Harness.Run.check;
    live = Harness.liveness_ok r;
    digest = Digest.to_hex (Digest.string (Harness.audit_trace r));
    n_ops = Harness.Run.n_records r;
    cpu_s;
    disk_torn = c "durable.fault.torn";
    disk_corrupt = c "durable.fault.corrupt";
    disk_resurfaced = c "durable.fault.resurfaced";
    disk_lost_ints = c "durable.fault.lost_ints";
    disk_crashes = c "durable.fault.crashes";
    scrub_passes = c "durable.scrub.passes";
    scrub_flagged = c "durable.scrub.flagged";
    repairs_torn = c "durable.repair.torn";
    repairs_quarantined = c "durable.repair.quarantined";
    repairs_peer = c "durable.repair.peer";
    place_repairs = c "durable.repair.place";
    unrepaired = c "durable.repair.unrepaired";
  }

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

let measured_json m =
  let open Obs.Json in
  let int = Report.int in
  Obj
    ((("name", Str m.name) :: Report.verdict_fields m.verdict)
    @ [ ("live", Bool m.live); ("digest", Str m.digest); ("n_ops", int m.n_ops);
        ("cpu_s", Num m.cpu_s); ("disk_torn", int m.disk_torn);
        ("disk_corrupt", int m.disk_corrupt);
        ("disk_resurfaced", int m.disk_resurfaced);
        ("disk_lost_ints", int m.disk_lost_ints);
        ("disk_crashes", int m.disk_crashes); ("scrub_passes", int m.scrub_passes);
        ("scrub_flagged", int m.scrub_flagged); ("repairs_torn", int m.repairs_torn);
        ("repairs_quarantined", int m.repairs_quarantined);
        ("repairs_peer", int m.repairs_peer);
        ("place_repairs", int m.place_repairs); ("unrepaired", int m.unrepaired) ])

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
    Printf.printf
      "   %-36s verdict=%-5s live=%b  damage(torn=%d corrupt=%d stale=%d)  \
       repairs(torn=%d quar=%d peer=%d place=%d)  unrepaired=%d\n\
       %!"
      m.name (Report.verdict m.verdict) m.live m.disk_torn m.disk_corrupt
      m.disk_resurfaced
      m.repairs_torn m.repairs_quarantined m.repairs_peer m.place_repairs
      m.unrepaired
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
  let deterministic = first.digest = repeat.digest in
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
      (fun m -> m.verdict = Harness.Run.Pass && m.live && m.unrepaired = 0)
      runs
  in
  let repaired =
    List.exists (fun m -> m.repairs_torn + m.repairs_peer + m.place_repairs > 0) runs
  in
  let ok = all_pass && repaired && deterministic && control_caught in
  Printf.printf
    "all runs pass: %b   repairs exercised: %b   deterministic: %b   control \
     caught: %b   ok: %b\n\
     %!"
    all_pass repaired deterministic control_caught ok;
  let open Obs.Json in
  Report.write cli ~schema:"rss-repro/durable/v1" ~ok
    [ ("duration_s", Num duration_s); ("runs", Arr (List.map measured_json runs));
      ("all_pass", Bool all_pass); ("repairs_exercised", Bool repaired);
      ("deterministic", Bool deterministic); ("control_caught", Bool control_caught);
      ( "control_detail",
        Str
          (match control with
          | Some (name, detail) -> name ^ ": " ^ detail
          | None -> "not caught") ) ]
