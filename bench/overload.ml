(* Overload & gray-failure robustness suite.

   Two experiments, both machine-readable (default BENCH_overload.json):

   1. Offered-load ramp (spanner, open system). Partly-open Retwis
      sessions arrive at a ramp of rates against a 4-shard deployment with
      a real per-message server cost. The *control* runs bare: past the
      saturation knee the backlog grows without bound and goodput
      (completions within the client deadline) collapses. The *protected*
      runs with the full overload stack — deadline propagation with
      expired-work drops, bounded queues with load shedding, and a
      fleet-wide retry budget — and must sustain most of its peak goodput
      at twice the knee.

   2. Hedged reads under a slow-node gray failure (gryff, WAN). The
      slow-node nemesis degrades one site (station slowdown + link delay,
      no crash). A bare-quorum fan-out strands its read tail behind the
      victim; the hedged policy re-widens the fan-out after a short delay
      and must cut read p99 by at least 3x.

   Protected/hedged runs verify their histories online; a consistency
   failure fails the suite. A protected run is repeated to prove the
   whole stack is deterministic.

     dune exec bench/overload.exe --              # full sizes, ~1 min
     dune exec bench/overload.exe -- --smoke      # CI sizes

   Exit status 1 on: any online-checked verification failure, control
   collapse not observed, protected goodput floor missed, hedge ratio
   missed (full runs only), sheds observed with protections off, or a
   repeat-determinism mismatch. *)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Completions within [deadline_us], across every latency recorder. The
   recorders only hold post-warm-up completions, so this is the goodput
   numerator directly; abandoned operations never complete and never
   appear. *)
let count_good r ~deadline_us =
  List.fold_left
    (fun (n_all, n_good) (_, rec_) ->
      let a = Stats.Recorder.to_sorted_array rec_ in
      let good = ref 0 in
      Array.iter (fun l -> if l <= deadline_us then incr good) a;
      (n_all + Array.length a, n_good + !good))
    (0, 0)
    r.Harness.Run.latencies

(* Every completion latency in one recorder. *)
let merged (r : Harness.Run.t) =
  List.fold_left
    (fun acc (_, rec_) -> Stats.Recorder.merge acc rec_)
    (Stats.Recorder.create ()) r.Harness.Run.latencies

let goodput_tps ~deadline_us ~measured_s r =
  float_of_int (snd (count_good r ~deadline_us)) /. measured_s

(* A canonical digest of a run's observable outcome: every completion
   latency plus the counters the suite gates on. Two runs of the same
   configuration must produce the same digest — the whole protection
   stack draws no randomness of its own. *)
let run_digest (r : Harness.Run.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, rec_) ->
      Buffer.add_string b name;
      Array.iter
        (fun l -> Buffer.add_string b (string_of_int l ^ ","))
        (Stats.Recorder.to_sorted_array rec_))
    r.Harness.Run.latencies;
  List.iter
    (fun k -> Buffer.add_string b (Printf.sprintf "%s=%d;" k (Harness.Run.counter r k)))
    [
      "flow.shed"; "flow.expired"; "flow.abandoned"; "flow.budget.denied";
      "net.messages"; "rw.committed"; "ro.count";
    ];
  Buffer.add_string b (string_of_int r.Harness.Run.duration_us);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Experiment 1: offered-load ramp                                     *)
(* ------------------------------------------------------------------ *)

(* Open-system deployment: 4 shards in one DC with a 15 us per-message
   service cost, partly-open Retwis sessions. The knee sits where the
   busiest shard leader's station saturates. *)
let ramp_config ~mode =
  Spanner.Config.single_dc ~mode ~n_shards:4 ~service_time_us:15 ()

let ramp_deadline_us = 25_000

let ramp_protection =
  {
    Harness.flow_default with
    Harness.fl_admission =
      Some { Sim.Station.max_queue = 256; max_sojourn_us = 8_000 };
    fl_drop_expired = true;
    fl_budget = Some (64, 2_000);
  }

let ramp_run ~protected ~rate ~duration_s ~seed =
  let env =
    if protected then
      Harness.Env.(
        default |> with_check `Online
        |> with_deadline_us (Some ramp_deadline_us)
        |> with_flow (Some ramp_protection))
    else Harness.Env.(default |> with_check `No_check)
  in
  Harness.spanner_wan
    ~config:(Some (ramp_config ~mode:Spanner.Config.Rss))
    ~env ~mode:Spanner.Config.Rss ~theta:0.3 ~n_keys:4000
    ~arrival_rate_per_sec:rate ~duration_s ~seed ()

(* ------------------------------------------------------------------ *)
(* Experiment 2: hedged reads under a slow node                        *)
(* ------------------------------------------------------------------ *)

let hedge_us = 15_000

(* The slow-node preset draws 20-80 ms of link lag — a nuisance next to
   this deployment's WAN round trips. Amplify the lag component so the
   victim is decisively gray (seconds of lag, still alive), which is the
   regime hedging exists for; the slowdown windows and victim choice stay
   exactly the preset's. *)
let amplify_lag ev =
  match ev.Chaos.Schedule.fault with
  | Chaos.Schedule.Delay { links; extra_us } ->
    {
      ev with
      Chaos.Schedule.fault =
        Chaos.Schedule.Delay { links; extra_us = extra_us * 20 };
    }
  | _ -> ev

let hedge_run ~fanout ~duration_s ~seed =
  let schedule =
    Chaos.Audit.nemesis_schedule Chaos.Audit.Gryff_rsc Chaos.Nemesis.Slow_node
      ~duration_s ~seed
    |> List.map amplify_lag
  in
  (* Clients run off the victims: hedging recovers a *server-side* tail —
     a client whose own links lag is slow no matter whom it asks. The
     preset may open more than one slowdown window, each with its own
     victim, so every slowed site is excluded. *)
  let victims =
    List.filter_map
      (fun ev ->
        match ev.Chaos.Schedule.fault with
        | Chaos.Schedule.Slow { site; _ } -> Some site
        | _ -> None)
      schedule
  in
  let client_sites =
    Array.of_list (List.filter (fun s -> not (List.mem s victims)) [ 0; 1; 2; 3; 4 ])
  in
  let flow =
    {
      Harness.flow_default with
      Harness.fl_gryff_fanout = Some fanout;
      fl_hedge_us = hedge_us;
    }
  in
  let env =
    Harness.Env.(
      default |> with_check `Online |> with_chaos schedule
      |> with_flow (Some flow))
  in
  Harness.gryff_wan ~client_sites ~env ~mode:Gryff.Config.Rsc ~conflict:0.05
    ~write_ratio:0.2 ~n_keys:50_000 ~duration_s ~seed ()

let run_json ~deadline_us ~measured_s r =
  let open Obs.Json in
  let completed, good = count_good r ~deadline_us in
  let pct p = Report.num_opt (Stats.Recorder.percentile_ms_opt (merged r) p) in
  Report.(
    run_json r
      [ Value ("completed", int completed); Value ("good", int good);
        Value ("goodput_tps", Num (float_of_int good /. measured_s));
        Value ("p50_ms", pct 50.0); Value ("p99_ms", pct 99.0);
        Counter ("shed", "flow.shed"); Counter ("expired", "flow.expired");
        Counter ("abandoned", "flow.abandoned");
        Counter ("budget_denied", "flow.budget.denied");
        Counter ("hedges", "flow.hedges"); Counter ("hedge_wins", "flow.hedge_wins");
        Verdict ])

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let cli = Report.cli "overload" in
  let smoke = cli.Report.smoke and seed = Option.get cli.Report.seed in
  let failed = ref false in
  let fail fmt = Printf.ksprintf (fun m -> Printf.printf "   %s\n%!" m; failed := true) fmt in

  (* --- Experiment 1: offered-load ramp --- *)
  let duration_s = if smoke then 2.0 else 5.0 in
  let measured_s = duration_s *. 0.9 in
  (* Rates in sessions/s; a session issues ~10 Retwis transactions. The
     knee of this deployment sits at the third point; the last point is
     twice that. *)
  let rates = [ 1_400.0; 2_200.0; 2_800.0; 5_600.0 ] in
  Printf.printf "== offered-load ramp (spanner, %g simulated s/point) ==\n%!"
    duration_s;
  let goodput_tps = goodput_tps ~deadline_us:ramp_deadline_us ~measured_s in
  let points =
    List.map
      (fun rate ->
        let run ~protected =
          Report.drop_history (ramp_run ~protected ~rate ~duration_s ~seed)
        in
        let control = run ~protected:false in
        let protected_ = run ~protected:true in
        Printf.printf
          "   rate %6.0f/s  control %8.0f good tps (p99 %s ms)   protected \
           %8.0f good tps  shed %d expired %d verdict=%s\n%!"
          rate (goodput_tps control)
          (match Stats.Recorder.percentile_ms_opt (merged control) 99.0 with
          | Some p -> Printf.sprintf "%.1f" p
          | None -> "n/a")
          (goodput_tps protected_)
          (Harness.Run.counter protected_ "flow.shed")
          (Harness.Run.counter protected_ "flow.expired")
          (Report.verdict protected_.Harness.Run.check);
        (rate, control, protected_))
      rates
  in
  let peak =
    List.fold_left (fun acc (_, c, _) -> Float.max acc (goodput_tps c)) 0.0 points
  in
  let _, top_control, top_protected =
    List.nth points (List.length points - 1)
  in
  let control_min_frac = goodput_tps top_control /. Float.max 1e-9 peak in
  let protected_top_frac = goodput_tps top_protected /. Float.max 1e-9 peak in
  let control_collapse = control_min_frac < 0.40 in
  let control_sheds =
    List.fold_left
      (fun acc (_, c, _) ->
        acc + Harness.Run.counter c "flow.shed" + Harness.Run.counter c "flow.expired")
      0 points
  in
  let protected_verdicts_pass =
    List.for_all (fun (_, _, p) -> Harness.Run.passed p) points
  in
  Printf.printf
    "   peak %8.0f good tps; control at top rate %.0f%%; protected at top \
     rate %.0f%%\n%!"
    peak (control_min_frac *. 100.0)
    (protected_top_frac *. 100.0);
  if not control_collapse then
    fail "NO COLLAPSE: control kept %.0f%% of peak goodput at top rate"
      (control_min_frac *. 100.0);
  if protected_top_frac < 0.70 then
    fail "GOODPUT FLOOR MISSED: protected %.0f%% of peak at top rate < 70%%"
      (protected_top_frac *. 100.0);
  if control_sheds <> 0 then
    fail "UNARMED SHEDS: %d sheds/expiries with protections off" control_sheds;
  if not protected_verdicts_pass then
    fail "CONSISTENCY FAILURE in a protected ramp run";
  let ramp =
    let open Obs.Json in
    let run_json = run_json ~deadline_us:ramp_deadline_us ~measured_s in
    let point (rate, c, p) =
      Obj [ ("rate", Num rate); ("control", run_json c); ("protected", run_json p) ]
    in
    Obj
      [ ("deadline_us", Report.int ramp_deadline_us);
        ("rates", Arr (List.map (fun r -> Num r) rates));
        ("points", Arr (List.map point points)); ("peak_goodput_tps", Num peak);
        ("control_min_frac", Num control_min_frac);
        ("control_collapse", Bool control_collapse);
        ("protected_top_frac", Num protected_top_frac);
        ("protected_ok", Bool (protected_top_frac >= 0.70));
        ("control_sheds", Report.int control_sheds);
        ("protected_verdicts_pass", Bool protected_verdicts_pass) ]
  in

  (* --- Experiment 2: hedged reads under a slow node --- *)
  let hduration_s = if smoke then 8.0 else 20.0 in
  Printf.printf "== hedged reads under slow-node (gryff, %g simulated s) ==\n%!"
    hduration_s;
  let unhedged =
    hedge_run ~fanout:Gryff.Protocol.Fan_quorum ~duration_s:hduration_s ~seed
  in
  let hedged =
    hedge_run ~fanout:Gryff.Protocol.Hedged ~duration_s:hduration_s ~seed
  in
  let read_p99 r = Stats.Recorder.percentile_ms_opt (Harness.Run.latency r "read") 99.0 in
  let un_p99 = read_p99 unhedged and h_p99 = read_p99 hedged in
  let ratio =
    match (un_p99, h_p99) with
    | Some u, Some h when h > 0.0 -> u /. h
    | _ -> nan
  in
  let hedges = Harness.Run.counter hedged "flow.hedges" in
  let hedge_wins = Harness.Run.counter hedged "flow.hedge_wins" in
  let hedge_verdicts_pass =
    Harness.Run.passed unhedged && Harness.Run.passed hedged
  in
  Printf.printf
    "   read p99: bare quorum %s ms, hedged %s ms (%.1fx); %d hedges, %d \
     wins; verdicts %s/%s\n%!"
    (match un_p99 with Some p -> Printf.sprintf "%.1f" p | None -> "n/a")
    (match h_p99 with Some p -> Printf.sprintf "%.1f" p | None -> "n/a")
    ratio hedges hedge_wins
    (Report.verdict unhedged.Harness.Run.check)
    (Report.verdict hedged.Harness.Run.check);
  if Float.is_nan ratio || ratio < 3.0 then
    fail "HEDGE RATIO MISSED: bare-quorum p99 only %.1fx the hedged p99" ratio;
  if hedges = 0 || hedge_wins = 0 then
    fail "HEDGING INERT: %d hedges, %d wins" hedges hedge_wins;
  if not hedge_verdicts_pass then
    fail "CONSISTENCY FAILURE in a slow-node hedging run";
  let hedge =
    let open Obs.Json in
    Obj
      [ ("preset", Str "slow-node"); ("hedge_us", Report.int hedge_us);
        ("unhedged_p99_ms", Report.num_opt un_p99);
        ("hedged_p99_ms", Report.num_opt h_p99); ("ratio", Num ratio);
        ("hedges", Report.int hedges); ("hedge_wins", Report.int hedge_wins);
        ("verdicts_pass", Bool hedge_verdicts_pass);
        ("ok", Bool ((not (Float.is_nan ratio)) && ratio >= 3.0)) ]
  in

  (* --- Repeat determinism --- *)
  let det_rate = List.nth rates (List.length rates - 1) in
  let digest_of () =
    run_digest (ramp_run ~protected:true ~rate:det_rate ~duration_s ~seed)
  in
  let d1 = digest_of () in
  let d2 = digest_of () in
  Printf.printf "== repeat determinism ==\n   %s %s %s\n%!" d1
    (if d1 = d2 then "==" else "!=")
    d2;
  if d1 <> d2 then fail "NON-DETERMINISM: protected run digests differ";
  let open Obs.Json in
  Report.write cli ~schema:"rss-repro/overload/v1" ~ok:(not !failed)
    [ ("ramp", ramp); ("hedge", hedge);
      ( "determinism",
        Obj [ ("digest_a", Str d1); ("digest_b", Str d2); ("ok", Bool (d1 = d2)) ] ) ]
