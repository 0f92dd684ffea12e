(* Ablations of Spanner-RSS's design knobs (DESIGN.md):
   1. t_ee estimation slack — how estimate quality trades RO blocking
      against RW completion latency;
   2. TrueTime error sweep — how ε moves both systems' tails;
   3. per-session vs. global t_min — why the paper gives each partly-open
      session a fresh minimum read timestamp. *)

let p_or_zero r p =
  match Stats.Recorder.percentile_ms_opt r p with Some v -> v | None -> 0.0

let ro_p99 (run : Harness.Run.t) = p_or_zero (Harness.Run.latency run "ro") 99.0

let rw_p50 (run : Harness.Run.t) = p_or_zero (Harness.Run.latency run "rw") 50.0

let tee_slack ?(duration_s = 60.0) ?(seed = 11) () =
  Fmt.pr "--- Ablation 1: t_ee estimate slack (skew 0.9) ---@.";
  Fmt.pr "  %10s | %12s %12s %14s@." "pad (ms)" "RO p99 (ms)" "RW p50 (ms)"
    "RO blocked";
  List.iter
    (fun pad_ms ->
      let config = Spanner.Config.wan3 ~mode:Spanner.Config.Rss () in
      let config = { config with Spanner.Config.tee_pad_us = Sim.Engine.ms pad_ms } in
      let run =
        Harness.spanner_wan ~config:(Some config) ~mode:Spanner.Config.Rss
          ~theta:0.9 ~n_keys:1_000_000 ~arrival_rate_per_sec:6.0 ~duration_s ~seed
          ()
      in
      Harness.Run.report_check "tee-slack" run.Harness.Run.check;
      Fmt.pr "  %10.0f | %12.1f %12.1f %10d/%d@." pad_ms (ro_p99 run) (rw_p50 run)
        (Harness.Run.counter run "ro.blocked_at_shards")
        (Harness.Run.counter run "ro.count"))
    [ 0.0; 25.0; 100.0; 400.0 ];
  Fmt.pr "  (larger pads: ROs skip prepared txns more often, but every RW@.";
  Fmt.pr "   waits out its padded estimate before completing)@.@."

let epsilon_sweep ?(duration_s = 60.0) ?(seed = 12) () =
  Fmt.pr "--- Ablation 2: TrueTime error bound (skew 0.75) ---@.";
  Fmt.pr "  %10s | %23s | %23s@." "eps (ms)" "spanner RO p99 / RW p50"
    "rss RO p99 / RW p50";
  List.iter
    (fun eps_ms ->
      let with_eps mode =
        let config = Spanner.Config.wan3 ~mode () in
        let config = { config with Spanner.Config.epsilon_us = Sim.Engine.ms eps_ms } in
        Harness.spanner_wan ~config:(Some config) ~mode ~theta:0.75
          ~n_keys:1_000_000 ~arrival_rate_per_sec:20.0 ~duration_s ~seed ()
      in
      let strict = with_eps Spanner.Config.Strict in
      let rss = with_eps Spanner.Config.Rss in
      Harness.Run.report_check "eps-strict" strict.Harness.Run.check;
      Harness.Run.report_check "eps-rss" rss.Harness.Run.check;
      Fmt.pr "  %10.0f | %11.1f / %9.1f | %11.1f / %9.1f@." eps_ms (ro_p99 strict)
        (rw_p50 strict) (ro_p99 rss) (rw_p50 rss))
    [ 1.0; 10.0; 50.0 ];
  Fmt.pr "@."

(* Global t_min: funnel every session through a handful of long-lived
   clients, so t_min ratchets up with the whole system's write activity. *)
let tmin_scope ?(duration_s = 60.0) ?(seed = 13) () =
  Fmt.pr "--- Ablation 3: per-session vs global t_min (skew 0.9) ---@.";
  let per_session =
    Harness.spanner_wan ~mode:Spanner.Config.Rss ~theta:0.9 ~n_keys:1_000_000
      ~arrival_rate_per_sec:6.0 ~duration_s ~seed ()
  in
  (* Global variant: run the same offered load through 3 shared clients. *)
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Spanner.Config.wan3 ~mode:Spanner.Config.Rss () in
  let cluster = Spanner.Cluster.create engine ~rng config in
  let retwis =
    Workload.Retwis.create ~rng:(Sim.Rng.split rng) ~n_keys:1_000_000 ~theta:0.9
  in
  let shared = Array.init 3 (fun site -> Spanner.Client.create cluster ~site) in
  let ro = Stats.Recorder.create () in
  let until = Sim.Engine.sec duration_s in
  ignore
    (Workload.Client_model.partly_open engine ~rng:(Sim.Rng.split rng)
       ~arrival_rate_per_sec:6.0 ~stay:0.9
       ~body:(fun ~client k ->
         let c = shared.(client mod 3) in
         let txn = Workload.Retwis.sample retwis in
         let t0 = Sim.Engine.now engine in
         if Workload.Retwis.is_read_only txn then
           Spanner.Client.ro c ~keys:txn.Workload.Retwis.read_keys (fun _ ->
               Stats.Recorder.add ro (Sim.Engine.now engine - t0);
               k ())
         else
           Spanner.Client.rw c ~read_keys:txn.Workload.Retwis.read_keys
             ~write_keys:txn.Workload.Retwis.write_keys (fun _ -> k ()))
       ~until ());
  Sim.Engine.run ~max_events:600_000_000 engine;
  let stats = Spanner.Cluster.stats cluster in
  Fmt.pr "  per-session t_min: RO p99 %.1f ms, blocked %d/%d@." (ro_p99 per_session)
    (Harness.Run.counter per_session "ro.blocked_at_shards")
    (Harness.Run.counter per_session "ro.count");
  Fmt.pr "  global t_min:      RO p99 %.1f ms, blocked %d/%d@." (p_or_zero ro 99.0)
    stats.Spanner.Cluster.ro_blocked_at_shards stats.Spanner.Cluster.ro_count;
  Fmt.pr "  (a shared t_min advances with every observed commit, forcing more@.";
  Fmt.pr "   tp <= t_min blocking — why the paper scopes t_min per session)@.@."

let run () =
  Fmt.pr "=== Ablations ===@.@.";
  tee_slack ();
  epsilon_sweep ();
  tmin_scope ()
