(* Batching / group-commit sweep.

   Drives the two single-DC saturation scenarios (spanner-dc, gryff-dc) with
   batching off (the baseline) and across a sweep of link-batching policies
   (deadline windows and the adaptive flush-on-idle policy), each both raw
   ([`No_check]) and online-checked — the point being that group commit buys
   saturation throughput by cutting messages per transaction, without the
   online checker losing the history.

   Output is machine-readable JSON (default [BENCH_batch.json]):

     dune exec bench/batch.exe --              # full sizes, ~1 min
     dune exec bench/batch.exe -- --smoke      # CI sizes, a few seconds

   Exit status: 1 if any online-checked run failed verification, if a
   batched policy did not reduce spanner-dc messages per transaction, or if
   a full (non-smoke) run's best policy missed the >= 15% spanner-dc
   saturation-throughput gain this suite exists to defend. *)

type measured = {
  check : string;  (* "none" | "online" *)
  n_ops : int;
  tput : float;  (* completed ops per simulated second, post-warm-up *)
  p50_ms : float option;
  msgs_per_txn : float option;  (* spanner-dc only *)
  msgs_per_op : float;  (* net.messages / n_ops, protocol-agnostic *)
  cpu_s : float;
  batch_envelopes : int;
  batch_members : int;
  verdict : Harness.Run.verdict;
}

let measure ~check_name (f : unit -> Harness.Run.t) =
  Gc.compact ();
  let t0 = Sys.time () in
  let r = f () in
  let cpu_s = Sys.time () -. t0 in
  let n_ops = Harness.Run.n_records r in
  {
    check = check_name;
    n_ops;
    tput = Option.value (Harness.Run.gauge_opt r "throughput_tps") ~default:0.0;
    p50_ms = Harness.Run.gauge_opt r "p50_ms";
    msgs_per_txn = Harness.Run.gauge_opt r "msgs_per_txn";
    msgs_per_op =
      float_of_int (Harness.Run.counter r "net.messages")
      /. float_of_int (max 1 n_ops);
    cpu_s;
    batch_envelopes = Harness.Run.counter r "batch.envelopes";
    batch_members = Harness.Run.counter r "batch.members";
    verdict = r.Harness.Run.check;
  }

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

let measured_json m =
  let open Obs.Json in
  Obj
    ([ ("check", Str m.check); ("n_ops", Report.int m.n_ops);
       ("throughput_tps", Num m.tput); ("p50_ms", Report.num_opt m.p50_ms);
       ("msgs_per_txn", Report.num_opt m.msgs_per_txn);
       ("msgs_per_op", Num m.msgs_per_op); ("cpu_s", Num m.cpu_s);
       ("batch_envelopes", Report.int m.batch_envelopes);
       ("batch_members", Report.int m.batch_members) ]
    @ Report.verdict_fields m.verdict)

let raw_online raw online =
  [ ("raw", measured_json raw); ("online", measured_json online) ]

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
            measure ~check_name:"none" (fun () ->
                sc.run ~env:(env_of_check `No_check) ~duration_s)
          in
          let online =
            measure ~check_name:"online" (fun () ->
                sc.run ~env:(env_of_check `Online) ~duration_s)
          in
          (match online.verdict with
          | Harness.Run.Fail m ->
            Printf.printf "   CONSISTENCY FAILURE: %s\n%!" m;
            failed := true
          | Harness.Run.Pass | Harness.Run.Unknown _ -> ());
          (raw, online)
        in
        let base_raw, base_online =
          run_pair (fun check -> Harness.Env.(default |> with_check check))
        in
        Printf.printf "   baseline:       %8.0f tps  %6.2f msgs/op\n%!"
          base_online.tput base_online.msgs_per_op;
        let best = ref neg_infinity in
        let sweep =
          List.map
            (fun (pname, policy) ->
              let raw, online =
                run_pair (fun check ->
                    Harness.Env.(
                      default |> with_check check |> with_batching (Some policy)))
              in
              Printf.printf
                "   %-15s %8.0f tps  %6.2f msgs/op  avg batch %4.1f  verdict=%s\n%!"
                pname online.tput online.msgs_per_op
                (float_of_int online.batch_members
                /. float_of_int (max 1 online.batch_envelopes))
                (Report.verdict online.verdict);
              if online.tput > !best then best := online.tput;
              if sc.name = "spanner-dc-rss" then begin
                match (online.msgs_per_txn, base_online.msgs_per_txn) with
                | Some m, Some base when m >= base ->
                  Printf.printf
                    "   MESSAGE REGRESSION: %s msgs_per_txn %.2f >= baseline %.2f\n%!"
                    pname m base;
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
        let gain = (!best -. base_online.tput) /. Float.max 1e-9 base_online.tput in
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
