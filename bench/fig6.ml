(* Figure 6: throughput and median latency under high load, Spanner vs
   Spanner-RSS — one data center, eight single-threaded shard leaders,
   uniform keys, TrueTime error zero, growing closed-loop client counts.
   The claim: Spanner-RSS's extra protocol machinery costs almost nothing. *)

let run ?(duration_s = 10.0) ?(service_time_us = 15) ?(n_keys = 100_000) ?(seed = 2)
    ?(client_counts = [ 8; 16; 32; 64; 128; 256; 384 ]) () =
  Fmt.pr "=== Figure 6: saturation throughput, 8 shards, single DC, eps=0, uniform keys ===@.";
  Fmt.pr "per-message leader CPU %d us, %gs simulated per point@.@." service_time_us
    duration_s;
  Fmt.pr "  %8s | %12s %9s %8s | %12s %9s %8s | %8s@." "clients" "spanner tps"
    "p50 (ms)" "msg/txn" "rss tps" "p50 (ms)" "msg/txn" "overhead";
  List.iter
    (fun n_clients ->
      let s =
        Harness.spanner_dc ~mode:Spanner.Config.Strict ~n_shards:8 ~service_time_us
          ~n_clients ~n_keys ~duration_s ~seed ()
      in
      let r =
        Harness.spanner_dc ~mode:Spanner.Config.Rss ~n_shards:8 ~service_time_us
          ~n_clients ~n_keys ~duration_s ~seed ()
      in
      Harness.Run.report_check "spanner" s.Harness.Run.check;
      Harness.Run.report_check "spanner-rss" r.Harness.Run.check;
      let tps_s = Harness.Run.gauge s "throughput_tps"
      and tps_r = Harness.Run.gauge r "throughput_tps" in
      Fmt.pr "  %8d | %12.0f %9.2f %8.2f | %12.0f %9.2f %8.2f | %7.1f%%@." n_clients
        tps_s (Harness.Run.gauge s "p50_ms") (Harness.Run.gauge s "msgs_per_txn")
        tps_r (Harness.Run.gauge r "p50_ms") (Harness.Run.gauge r "msgs_per_txn")
        (Stats.Summary.improvement ~baseline:tps_s ~variant:tps_r))
    client_counts;
  Fmt.pr
    "@.(overhead = throughput loss of RSS vs Spanner; msg/txn shows RSS's extra@.";
  Fmt.pr " slow-reply traffic — the paper's 'small number and size of messages')@.@."
