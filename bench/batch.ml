(* Batching / group-commit sweep.

   Drives the two single-DC saturation scenarios (spanner-dc, gryff-dc) with
   batching off (the baseline) and across a sweep of link-batching policies
   (deadline windows and the adaptive flush-on-idle policy), each both raw
   ([`No_check]) and online-checked (judged once the run drains) — the
   point being that group commit buys saturation throughput by cutting
   messages per transaction, without the checker losing the history.

   Output is machine-readable JSON (default [BENCH_batch.json]):

     dune exec bench/batch.exe --              # full sizes, ~1 min
     dune exec bench/batch.exe -- --smoke      # CI sizes, a few seconds

   Exit status: 1 if any online-checked run failed verification, if a
   batched policy did not reduce spanner-dc messages per transaction, or if
   a full (non-smoke) run's best policy missed the >= 15% spanner-dc
   saturation-throughput gain this suite exists to defend. *)

(* A measured run: the run without its history, and its host CPU seconds. *)
let measure (f : unit -> Harness.Run.t) =
  Gc.compact ();
  let r, cpu_s = Report.timed f in
  (Report.drop_history r, cpu_s)

(* Completed ops per simulated second, post-warm-up. *)
let tput r = Option.value (Harness.Run.gauge_opt r "throughput_tps") ~default:0.0

(* Messages per history record: protocol-agnostic. *)
let msgs_per_op r =
  float_of_int (Harness.Run.counter r "net.messages")
  /. float_of_int (max 1 (Report.n_ops r))

(* ------------------------------------------------------------------ *)
(* Policies and scenarios                                              *)
(* ------------------------------------------------------------------ *)

let policies =
  [
    ("deadline-25us", { Sim.Net.batch_us = 25; batch_max = 32; adaptive = false });
    ("deadline-50us", { Sim.Net.batch_us = 50; batch_max = 32; adaptive = false });
    ("deadline-100us", { Sim.Net.batch_us = 100; batch_max = 64; adaptive = false });
    ("adaptive-50us", { Sim.Net.batch_us = 50; batch_max = 32; adaptive = true });
  ]

type scenario = {
  name : string;
  duration_s : float;
  smoke_duration_s : float;
  run : env:Harness.Env.t -> duration_s:float -> Harness.Run.t;
}

let scenarios ~seed =
  [
    (* Client counts sit at the baseline's saturation knee (its throughput
       plateaus there; more clients only grow queues), so the comparison is
       the paper-style saturation throughput, not a latency race. *)
    {
      name = "spanner-dc-rss";
      duration_s = 10.0;
      smoke_duration_s = 2.0;
      run =
        (fun ~env ~duration_s ->
          Harness.spanner_dc ~env ~mode:Spanner.Config.Rss ~n_shards:4
            ~service_time_us:10 ~n_clients:64 ~n_keys:2000 ~duration_s ~seed ());
    };
    {
      name = "gryff-dc-rsc";
      duration_s = 4.0;
      smoke_duration_s = 0.5;
      run =
        (fun ~env ~duration_s ->
          Harness.gryff_dc ~env ~mode:Gryff.Config.Rsc ~service_time_us:10
            ~n_clients:48 ~conflict:0.1 ~write_ratio:0.5 ~n_keys:2000
            ~duration_s ~seed ());
    };
  ]

let run_json ~check (r, cpu_s) =
  let open Obs.Json in
  Report.(
    run_json r
      [ Value ("check", Str check); Counter ("n_ops", "op.history_records");
        Value ("throughput_tps", Num (tput r));
        Value ("p50_ms", num_opt (Harness.Run.gauge_opt r "p50_ms"));
        Value ("msgs_per_txn", num_opt (Harness.Run.gauge_opt r "msgs_per_txn"));
        Value ("msgs_per_op", Num (msgs_per_op r)); Value ("cpu_s", Num cpu_s);
        Counter ("batch_envelopes", "batch.envelopes");
        Counter ("batch_members", "batch.members"); Verdict ])

let raw_online raw online =
  [ ("raw", run_json ~check:"none" raw); ("online", run_json ~check:"online" online) ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let cli = Report.cli "batch" in
  let smoke = cli.Report.smoke and seed = Option.get cli.Report.seed in
  let failed = ref false in
  let spanner_gain = ref nan in
  let scenario_reports =
    List.map
      (fun sc ->
        let duration_s = if smoke then sc.smoke_duration_s else sc.duration_s in
        Printf.printf "== %s (%.1f simulated s) ==\n%!" sc.name duration_s;
        let run_pair env_of_check =
          let raw =
            measure (fun () -> sc.run ~env:(env_of_check `No_check) ~duration_s)
          in
          let online =
            measure (fun () -> sc.run ~env:(env_of_check `Online) ~duration_s)
          in
          (match (fst online).Harness.Run.check with
          | Harness.Run.Fail m ->
            Printf.printf "   CONSISTENCY FAILURE: %s\n%!" m;
            failed := true
          | Harness.Run.Pass | Harness.Run.Unknown _ -> ());
          (raw, online)
        in
        let base_raw, base_online =
          run_pair (fun check -> Harness.Env.(default |> with_check check))
        in
        let base = fst base_online in
        Printf.printf "   baseline:       %8.0f tps  %6.2f msgs/op\n%!"
          (tput base) (msgs_per_op base);
        let best = ref neg_infinity in
        let sweep =
          List.map
            (fun (pname, policy) ->
              let raw, online =
                run_pair (fun check ->
                    Harness.Env.(
                      default |> with_check check |> with_batching (Some policy)))
              in
              let r = fst online in
              let c = Harness.Run.counter r in
              Printf.printf
                "   %-15s %8.0f tps  %6.2f msgs/op  avg batch %4.1f  verdict=%s\n%!"
                pname (tput r) (msgs_per_op r)
                (float_of_int (c "batch.members")
                /. float_of_int (max 1 (c "batch.envelopes")))
                (Report.verdict r.Harness.Run.check);
              if tput r > !best then best := tput r;
              if sc.name = "spanner-dc-rss" then begin
                let msgs_per_txn r = Harness.Run.gauge_opt r "msgs_per_txn" in
                match (msgs_per_txn r, msgs_per_txn base) with
                | Some m, Some b when m >= b ->
                  Printf.printf
                    "   MESSAGE REGRESSION: %s msgs_per_txn %.2f >= baseline %.2f\n%!"
                    pname m b;
                  failed := true
                | _ -> ()
              end;
              Obs.Json.Obj
                ([ ("policy", Obs.Json.Str pname);
                   ("batch_us", Report.int policy.Sim.Net.batch_us);
                   ("batch_max", Report.int policy.Sim.Net.batch_max);
                   ("adaptive", Obs.Json.Bool policy.Sim.Net.adaptive) ]
                @ raw_online raw online))
            policies
        in
        let gain = (!best -. tput base) /. Float.max 1e-9 (tput base) in
        Printf.printf "   best gain over baseline: %+.1f%%\n%!" (gain *. 100.0);
        if sc.name = "spanner-dc-rss" then begin
          spanner_gain := gain;
          if (not smoke) && gain < 0.15 then begin
            Printf.printf
              "   THROUGHPUT REGRESSION: best batched gain %.1f%% < required 15%%\n%!"
              (gain *. 100.0);
            failed := true
          end
        end;
        Obs.Json.(
          Obj
            [ ("name", Str sc.name);
              ("baseline", Obj (raw_online base_raw base_online));
              ("sweep", Arr sweep); ("best_gain", Num gain) ]))
      (scenarios ~seed)
  in
  Report.write cli ~schema:"rss-repro/batch/v1" ~ok:(not !failed)
    [ ("scenarios", Obs.Json.Arr scenario_reports);
      ("spanner_dc_gain", Obs.Json.Num !spanner_gain) ]
