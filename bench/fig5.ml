(* Figure 5: Spanner vs Spanner-RSS read-only transaction tail latency on
   Retwis at three Zipfian skews, plus the §6.1 claim that RW latency is
   unaffected. One latency-distribution table per sub-figure. *)

let points = [ 50.0; 90.0; 95.0; 99.0; 99.5; 99.9 ]

(* Per-skew session arrival rates: the paper loads each workload to 70-80%
   of its own maximum throughput, which at higher skews is contention-bound
   and therefore lower. *)
let default_loads = [ (0.5, 400.0); (0.75, 40.0); (0.9, 6.0) ]

let run ?(duration_s = 300.0) ?(loads = default_loads) ?(n_keys = 10_000_000)
    ?(seed = 1) () =
  Fmt.pr "=== Figure 5: RO transaction tail latency, Retwis, 3 shards x 3 replicas (CA/VA/IR) ===@.";
  Fmt.pr "partly-open clients (p=0.9, H=0), %d keys, eps=10ms, %gs simulated@.@."
    n_keys duration_s;
  List.iteri
    (fun i (theta, arrival_rate_per_sec) ->
      let sub = [| "5a"; "5b"; "5c" |].(i) in
      Fmt.pr "(offered load: %.0f sessions/s)@." arrival_rate_per_sec;
      let strict =
        Harness.spanner_wan ~mode:Spanner.Config.Strict ~theta ~n_keys
          ~arrival_rate_per_sec ~duration_s ~seed ()
      in
      let rss =
        Harness.spanner_wan ~mode:Spanner.Config.Rss ~theta ~n_keys
          ~arrival_rate_per_sec ~duration_s ~seed ()
      in
      Harness.Run.report_check "spanner" strict.Harness.Run.check;
      Harness.Run.report_check "spanner-rss" rss.Harness.Run.check;
      let ro_s = Harness.Run.latency strict "ro"
      and ro_r = Harness.Run.latency rss "ro" in
      Stats.Summary.print_latency_table
        ~header:(Fmt.str "Fig. %s — skew %.2f: read-only transaction latency (ms)" sub theta)
        ~rows:[ ("spanner", ro_s); ("spanner-rss", ro_r) ]
        ~points ();
      (match
         ( Stats.Recorder.percentile_ms_opt ro_s 99.0,
           Stats.Recorder.percentile_ms_opt ro_r 99.0,
           Stats.Recorder.percentile_ms_opt ro_s 99.9,
           Stats.Recorder.percentile_ms_opt ro_r 99.9 )
       with
      | Some p99_s, Some p99_r, Some p999_s, Some p999_r ->
        Fmt.pr
          "  -> RSS reduces RO p99 by %.0f%% (%.0f -> %.0f ms), p99.9 by %.0f%% (%.0f -> %.0f ms)@."
          (Stats.Summary.improvement ~baseline:p99_s ~variant:p99_r)
          p99_s p99_r
          (Stats.Summary.improvement ~baseline:p999_s ~variant:p999_r)
          p999_s p999_r
      | _ -> ());
      Fmt.pr "  shard-side RO blocking events: spanner=%d rss=%d (of %d / %d ROs)@."
        (Harness.Run.counter strict "ro.blocked_at_shards")
        (Harness.Run.counter rss "ro.blocked_at_shards")
        (Harness.Run.counter strict "ro.count")
        (Harness.Run.counter rss "ro.count");
      Stats.Summary.print_latency_table
        ~header:"        read-write transaction latency (ms) — must match"
        ~rows:
          [
            ("spanner", Harness.Run.latency strict "rw");
            ("spanner-rss", Harness.Run.latency rss "rw");
          ]
        ~points:[ 50.0; 90.0; 99.0 ] ();
      Fmt.pr "@.")
    loads
