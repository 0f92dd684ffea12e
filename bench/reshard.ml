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

type measured = {
  name : string;
  verdict : Harness.Run.verdict;
  digest : string;  (* MD5 of the marshalled history: determinism witness *)
  n_ops : int;
  sim_s : float;
  cpu_s : float;
  ro_p50_us : float option;  (* [None] (JSON null) for an empty recorder *)
  ro_p99_us : float option;
  rw_p50_us : float option;
  rw_p99_us : float option;
  epoch : int;
  migrations : int;
  migrations_failed : int;
  migration_retries : int;
  keys_moved : int;
  redirects : int;
  fence_blocked : int;
  fence_hold_us : int;
  max_fence_hold_us : int;
  directory_appends : int;
}

let history_digest (r : Harness.Run.t) =
  match r.Harness.Run.records with
  | Harness.Run.Spanner_txns a -> Digest.to_hex (Digest.string (Marshal.to_string a []))
  | Harness.Run.Gryff_ops a -> Digest.to_hex (Digest.string (Marshal.to_string a []))

let measure ~name ~reshard ~theta ~n_keys ~rate ~duration_s ~seed =
  let t0 = Sys.time () in
  let r =
    Harness.spanner_wan
      ~env:Harness.Env.(default |> with_check `Online |> with_reshard reshard)
      ~mode:Spanner.Config.Rss ~theta ~n_keys ~arrival_rate_per_sec:rate
      ~duration_s ~seed ()
  in
  let cpu_s = Sys.time () -. t0 in
  let c = Harness.Run.counter r in
  let ro = Harness.Run.latency r "ro" and rw = Harness.Run.latency r "rw" in
  ( r,
    {
      name;
      verdict = r.Harness.Run.check;
      digest = history_digest r;
      n_ops = Harness.Run.n_records r;
      sim_s = Sim.Engine.to_sec r.Harness.Run.duration_us;
      cpu_s;
      ro_p50_us = Stats.Recorder.percentile_opt ro 50.0;
      ro_p99_us = Stats.Recorder.percentile_opt ro 99.0;
      rw_p50_us = Stats.Recorder.percentile_opt rw 50.0;
      rw_p99_us = Stats.Recorder.percentile_opt rw 99.0;
      epoch = c "place.epoch";
      migrations = c "place.migrations";
      migrations_failed = c "place.migrations_failed";
      migration_retries = c "place.migration_retries";
      keys_moved = c "place.keys_moved";
      redirects = c "place.redirects";
      fence_blocked = c "place.fence_blocked";
      fence_hold_us = c "place.fence_hold_us";
      max_fence_hold_us = c "place.max_fence_hold_us";
      directory_appends = c "place.directory_appends";
    } )

let measured_json m =
  let open Obs.Json in
  let int = Report.int and opt = Report.num_opt in
  Obj
    ((("name", Str m.name) :: Report.verdict_fields m.verdict)
    @ [ ("digest", Str m.digest); ("n_ops", int m.n_ops); ("sim_s", Num m.sim_s);
        ("cpu_s", Num m.cpu_s); ("ro_p50_us", opt m.ro_p50_us);
        ("ro_p99_us", opt m.ro_p99_us); ("rw_p50_us", opt m.rw_p50_us);
        ("rw_p99_us", opt m.rw_p99_us); ("epoch", int m.epoch);
        ("migrations", int m.migrations);
        ("migrations_failed", int m.migrations_failed);
        ("migration_retries", int m.migration_retries);
        ("keys_moved", int m.keys_moved); ("redirects", int m.redirects);
        ("fence_blocked", int m.fence_blocked);
        ("fence_hold_us", int m.fence_hold_us);
        ("max_fence_hold_us", int m.max_fence_hold_us);
        ("directory_appends", int m.directory_appends) ])

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
    Printf.printf
      "   %-10s verdict=%-7s ops=%6d  migrations=%d/%d  keys=%5d  \
       redirects=%4d  fence=%d us (max %d)\n\
       %!"
      m.name (Report.verdict m.verdict) m.n_ops m.migrations
      (m.migrations + m.migrations_failed)
      m.keys_moved m.redirects m.fence_hold_us m.max_fence_hold_us
  in
  Printf.printf "== reshard bench (hot range [0,%d) of %d keys, %.0f sim-s) ==\n%!"
    hot_hi n_keys duration_s;
  let _, base =
    measure ~name:"baseline" ~reshard:[] ~theta ~n_keys ~rate ~duration_s ~seed
  in
  report base;
  let _, live =
    measure ~name:"reshard" ~reshard:(spec false) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report live;
  let _, live2 =
    measure ~name:"reshard-2" ~reshard:(spec false) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report live2;
  let _, nofence =
    measure ~name:"no-fence" ~reshard:(spec true) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report nofence;
  let deterministic = live.digest = live2.digest in
  let migrated_ok =
    live.migrations >= 1 && live.migrations_failed = 0 && live.keys_moved >= 1
    && live.epoch >= 1
  in
  let no_fence_caught =
    match nofence.verdict with Harness.Run.Fail _ -> true | _ -> false
  in
  let ok =
    base.verdict = Harness.Run.Pass
    && live.verdict = Harness.Run.Pass
    && migrated_ok && deterministic && no_fence_caught
  in
  Printf.printf "deterministic: %b   no-fence caught: %b   ok: %b\n%!"
    deterministic no_fence_caught ok;
  let open Obs.Json in
  Report.write cli ~schema:"rss-repro/reshard/v1" ~ok
    [ ("n_keys", Report.int n_keys);
      ("hot_range", Arr [ Report.int 0; Report.int hot_hi ]);
      ("runs", Arr (List.map measured_json [ base; live; live2; nofence ]));
      ("deterministic", Bool deterministic);
      ("no_fence_caught", Bool no_fence_caught) ]
