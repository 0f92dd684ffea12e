(* §7.4: Gryff-RSC's piggybacking overhead — throughput and median latency
   without WAN emulation, 10% conflicts, at YCSB-A (50/50) and YCSB-B (95/5)
   mixes, growing client counts. Expected within ~1% of Gryff. *)

let run ?(duration_s = 10.0) ?(service_time_us = 10) ?(n_keys = 100_000) ?(seed = 5)
    ?(client_counts = [ 8; 32; 128; 256 ]) () =
  Fmt.pr "=== §7.4: Gryff-RSC overhead, single DC, 10%% conflicts ===@.";
  Fmt.pr "per-message replica CPU %d us, %gs simulated per point@.@." service_time_us
    duration_s;
  List.iter
    (fun (label, write_ratio) ->
      Fmt.pr "%s:@." label;
      Fmt.pr "  %8s | %12s %10s | %12s %10s | %9s@." "clients" "gryff ops/s"
        "p50 (ms)" "rsc ops/s" "p50 (ms)" "delta";
      List.iter
        (fun n_clients ->
          let l =
            Harness.gryff_dc ~mode:Gryff.Config.Lin ~service_time_us ~n_clients
              ~conflict:0.10 ~write_ratio ~n_keys ~duration_s ~seed ()
          in
          let r =
            Harness.gryff_dc ~mode:Gryff.Config.Rsc ~service_time_us ~n_clients
              ~conflict:0.10 ~write_ratio ~n_keys ~duration_s ~seed ()
          in
          Harness.Run.report_check "gryff" l.Harness.Run.check;
          Harness.Run.report_check "gryff-rsc" r.Harness.Run.check;
          let tps_l = Harness.Run.gauge l "throughput_tps"
          and tps_r = Harness.Run.gauge r "throughput_tps" in
          Fmt.pr "  %8d | %12.0f %10.3f | %12.0f %10.3f | %8.1f%%@." n_clients tps_l
            (Harness.Run.gauge l "p50_ms") tps_r (Harness.Run.gauge r "p50_ms")
            (Stats.Summary.improvement ~baseline:tps_l ~variant:tps_r))
        client_counts;
      Fmt.pr "@.")
    [ ("YCSB-A (50% reads / 50% writes)", 0.5); ("YCSB-B (95% reads / 5% writes)", 0.05) ]
