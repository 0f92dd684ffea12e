(* Long-form chaos audit battery — every nemesis preset against every
   protocol, several seeds each, plus a chaos-wrapped harness benchmark.
   Each cell is built by Harness.Env.of_preset, so it arms everything its
   preset is named for: the schedule, failover, disk damage and live
   migrations. A cell passes when its history verifies, liveness resumes
   after heal and no member is left quarantined. Excluded from tier-1
   `dune runtest`; run with:

     dune exec bench/chaos_audit.exe            # full battery
     dune exec bench/chaos_audit.exe -- quick   # one seed per cell *)

let seeds = function
  | [ "quick" ] -> [ 7 ]
  | _ -> [ 7; 23; 101 ]

let duration_s = 20.0

let audit_cell protocol preset ~seed =
  let name =
    Fmt.str "%-12s %-16s seed=%d"
      (Chaos.Audit.protocol_name protocol)
      (Chaos.Nemesis.preset_name preset)
      seed
  in
  let env =
    Harness.Env.of_preset protocol preset ~duration_s ~nemesis_seed:seed
  in
  let r = Harness.audit ~env protocol ~duration_s ~seed () in
  let c = Harness.Run.counter r in
  let verdict =
    match r.Harness.Run.check with
    | Harness.Run.Pass -> "ok"
    | Harness.Run.Fail m -> Fmt.str "VIOLATION %s" m
    | Harness.Run.Unknown m -> Fmt.str "UNKNOWN %s" m
  in
  let live = Harness.liveness_ok r in
  let failover_summary =
    if env.Harness.Env.failover then
      Fmt.str " vc=%d retries=%d indoubt=%d elect=%dus"
        (c "failover.view_changes") (c "failover.rpc_retries")
        (c "failover.in_doubt_resolved") (c "failover.max_election_us")
    else ""
  in
  let disk_summary =
    if env.Harness.Env.disk_faults = None then ""
    else
      Fmt.str " damaged=%d unrepaired=%d" (c "durable.fault.crashes")
        (c "durable.repair.unrepaired")
  in
  Fmt.pr "  %s  %-10s %-8s ops=%-6d unacked=%-4d drops=%d/%d/%d%s%s mig=%d@."
    name verdict
    (if live then "live" else "STALLED")
    (c "op.completed") (c "op.unacked_commits_swept") (c "fault.dropped_crash")
    (c "fault.dropped_partition") (c "fault.dropped_loss") failover_summary
    disk_summary (c "place.migrations");
  (Harness.Run.passed r && c "durable.repair.unrepaired" = 0, live)

let battery seeds =
  Fmt.pr "== nemesis battery (%g s simulated per cell) ==@." duration_s;
  let ok = ref 0 and bad = ref 0 in
  List.iter
    (fun protocol ->
      List.iter
        (fun (_, preset) ->
          List.iter
            (fun seed ->
              let checked, live = audit_cell protocol preset ~seed in
              if checked && live then incr ok else incr bad)
            seeds)
        Chaos.Nemesis.presets)
    Chaos.Audit.protocols;
  Fmt.pr "battery: %d passed, %d failed@.@." !ok !bad;
  !bad = 0

(* The harness integration path: the paper's §6.1 benchmark wrapped in a
   partition-heal schedule, fault accounting through the Summary tables. *)
let harness_demo () =
  Fmt.pr "== chaos-wrapped spanner_wan (partition-heal) ==@.";
  let chaos =
    Chaos.Nemesis.generate Chaos.Nemesis.Partition_heal ~n_sites:3
      ~duration_us:(Sim.Engine.sec duration_s) ~seed:7 ()
  in
  let r =
    Harness.spanner_wan
      ~env:Harness.Env.(default |> with_chaos chaos)
      ~mode:Spanner.Config.Rss ~theta:0.5 ~n_keys:5_000
      ~arrival_rate_per_sec:400.0 ~duration_s ~seed:7 ()
  in
  Harness.Run.print_summary ~header:"spanner-rss" r;
  Fmt.pr "@.";
  Fmt.pr "== chaos-wrapped spanner_wan (leader-kill, failover armed) ==@.";
  let lk =
    Harness.spanner_wan
      ~env:
        Harness.Env.(
          default
          |> with_chaos
               (Chaos.Nemesis.generate Chaos.Nemesis.Leader_kill ~n_sites:3
                  ~leaders:[ 0; 1; 2 ]
                  ~duration_us:(Sim.Engine.sec duration_s) ~seed:7 ())
          |> with_failover true)
      ~mode:Spanner.Config.Rss ~theta:0.5 ~n_keys:5_000
      ~arrival_rate_per_sec:100.0 ~duration_s ~seed:7 ()
  in
  Harness.Run.print_summary ~header:"spanner-rss failover" lk;
  Fmt.pr "@.";
  let gr =
    Harness.gryff_wan
      ~env:
        Harness.Env.(
          default
          |> with_chaos
               (Chaos.Nemesis.generate Chaos.Nemesis.Link_loss ~n_sites:5
                  ~duration_us:(Sim.Engine.sec duration_s) ~seed:7 ()))
      ~mode:Gryff.Config.Rsc ~conflict:0.1 ~write_ratio:0.3 ~n_keys:2_000
      ~duration_s ~seed:7 ()
  in
  Fmt.pr "== chaos-wrapped gryff_wan (link-loss) ==@.";
  Harness.Run.print_summary ~header:"gryff-rsc" gr;
  Harness.Run.passed r && Harness.Run.passed lk && Harness.Run.passed gr

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let battery_ok = battery (seeds args) in
  let harness_ok = harness_demo () in
  if not (battery_ok && harness_ok) then exit 1
