(* Live-reshard benchmark: migrate the Zipfian-hot eighth of the keyspace
   to another shard mid-workload and measure what elasticity costs.

   Four seeded runs over the §6.1 WAN deployment (Spanner-RSS, theta 0.9 so
   the moved range really is hot), all online-checked:

     baseline   -- no migration; the latency/verdict reference
     reshard    -- one fenced two-phase migration at 45% of the run
     reshard(2) -- the same run again; its history digest must match run 2
                   byte for byte (migration machinery must stay inside the
                   deterministic schedule)
     no-fence   -- the unsafe mutation control: the same migration with the
                   t_m fence/drain/barrier skipped. Writes committing at the
                   source during the ship window are missing at the
                   destination, and the online checker must flag the
                   resulting stale read.

   Output is machine-readable JSON (default BENCH_reshard.json):

     dune exec bench/reshard.exe --             # full size, ~1 min
     dune exec bench/reshard.exe -- --smoke     # CI size, a few seconds

   Exit status 1 unless: baseline and reshard pass the checker, the
   migration completes (>= 1 completed, 0 failed, keys actually moved),
   the repeated run is byte-identical, and the no-fence control fails. *)

(* MD5 of the marshalled history: the determinism witness. *)
let history_digest (r : Harness.Run.t) =
  match r.Harness.Run.records with
  | Harness.Run.Spanner_txns a -> Digest.to_hex (Digest.string (Marshal.to_string a []))
  | Harness.Run.Gryff_ops a -> Digest.to_hex (Digest.string (Marshal.to_string a []))

(* A named run and its host CPU seconds. *)
type timed = { name : string; run : Harness.Run.t; cpu_s : float }

let measure ~name ~reshard ~theta ~n_keys ~rate ~duration_s ~seed =
  let run, cpu_s =
    Report.timed (fun () ->
        Harness.spanner_wan
          ~env:Harness.Env.(default |> with_check `Online |> with_reshard reshard)
          ~mode:Spanner.Config.Rss ~theta ~n_keys ~arrival_rate_per_sec:rate
          ~duration_s ~seed ())
  in
  { name; run; cpu_s }

let run_json m =
  let open Obs.Json in
  let r = m.run in
  (* [None] (JSON null) for an empty recorder. *)
  let pct kind p =
    Report.num_opt (Stats.Recorder.percentile_opt (Harness.Run.latency r kind) p)
  in
  Report.(
    run_json r
      [ Value ("name", Str m.name); Verdict;
        Value ("digest", Str (history_digest r));
        Counter ("n_ops", "op.history_records");
        Value ("sim_s", Num (sim_s r)); Value ("cpu_s", Num m.cpu_s);
        Value ("ro_p50_us", pct "ro" 50.0); Value ("ro_p99_us", pct "ro" 99.0);
        Value ("rw_p50_us", pct "rw" 50.0); Value ("rw_p99_us", pct "rw" 99.0);
        Counter ("epoch", "place.epoch"); Counter ("migrations", "place.migrations");
        Counter ("migrations_failed", "place.migrations_failed");
        Counter ("migration_retries", "place.migration_retries");
        Counter ("keys_moved", "place.keys_moved");
        Counter ("redirects", "place.redirects");
        Counter ("fence_blocked", "place.fence_blocked");
        Counter ("fence_hold_us", "place.fence_hold_us");
        Counter ("max_fence_hold_us", "place.max_fence_hold_us");
        Counter ("directory_appends", "place.directory_appends") ])

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let cli = Report.cli "reshard" in
  let smoke = cli.Report.smoke and seed = Option.get cli.Report.seed in
  let n_keys = if smoke then 4_000 else 20_000 in
  let duration_s = if smoke then 6.0 else 20.0 in
  let rate = if smoke then 60.0 else 120.0 in
  let theta = 0.9 in
  let hot_hi = n_keys / 8 in
  let spec no_fence =
    [
      {
        Harness.rs_at = 0.45;
        rs_lo = 0;
        rs_hi = hot_hi;
        rs_dst = 1;
        rs_no_fence = no_fence;
      };
    ]
  in
  let report m =
    let c = Harness.Run.counter m.run in
    Printf.printf
      "   %-10s verdict=%-7s ops=%6d  migrations=%d/%d  keys=%5d  \
       redirects=%4d  fence=%d us (max %d)\n\
       %!"
      m.name
      (Report.verdict m.run.Harness.Run.check)
      (Report.n_ops m.run) (c "place.migrations")
      (c "place.migrations" + c "place.migrations_failed")
      (c "place.keys_moved") (c "place.redirects") (c "place.fence_hold_us")
      (c "place.max_fence_hold_us")
  in
  Printf.printf "== reshard bench (hot range [0,%d) of %d keys, %.0f sim-s) ==\n%!"
    hot_hi n_keys duration_s;
  let base =
    measure ~name:"baseline" ~reshard:[] ~theta ~n_keys ~rate ~duration_s ~seed
  in
  report base;
  let live =
    measure ~name:"reshard" ~reshard:(spec false) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report live;
  let live2 =
    measure ~name:"reshard-2" ~reshard:(spec false) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report live2;
  let nofence =
    measure ~name:"no-fence" ~reshard:(spec true) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report nofence;
  let deterministic = history_digest live.run = history_digest live2.run in
  let migrated_ok =
    let c = Harness.Run.counter live.run in
    c "place.migrations" >= 1
    && c "place.migrations_failed" = 0
    && c "place.keys_moved" >= 1
    && c "place.epoch" >= 1
  in
  let no_fence_caught =
    match nofence.run.Harness.Run.check with
    | Harness.Run.Fail _ -> true
    | _ -> false
  in
  let ok =
    Harness.Run.passed base.run && Harness.Run.passed live.run && migrated_ok
    && deterministic && no_fence_caught
  in
  Printf.printf "deterministic: %b   no-fence caught: %b   ok: %b\n%!"
    deterministic no_fence_caught ok;
  let open Obs.Json in
  Report.write cli ~schema:"rss-repro/reshard/v1" ~ok
    [ ("n_keys", Report.int n_keys);
      ("hot_range", Arr [ Report.int 0; Report.int hot_hi ]);
      ("runs", Arr (List.map run_json [ base; live; live2; nofence ]));
      ("deterministic", Bool deterministic);
      ("no_fence_caught", Bool no_fence_caught) ]
