(* Pinned counter snapshots: every counter a run reports — its name, its
   value and its place in the snapshot — for four runs that between them
   fire every counter family. Each cluster names its counters in one
   function and the driver core adds the shared families, so a renamed,
   dropped, reordered or recomputed counter shows up here. Re-baseline only
   for a deliberate change to what a run counts, and say so in the same
   commit. *)

let check = Alcotest.check

let snapshot_digest (r : Harness.Run.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s=%d\n" name v))
    r.Harness.Run.metrics.Obs.Metrics.counters;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A family fires when at least one of its counters is non-zero. *)
let fires (r : Harness.Run.t) prefix =
  List.exists
    (fun (name, v) -> v <> 0 && String.starts_with ~prefix name)
    r.Harness.Run.metrics.Obs.Metrics.counters

let preset_audit protocol preset =
  let duration_s = 6.0 and seed = 5 in
  let env =
    Harness.Env.of_preset protocol preset ~duration_s ~nemesis_seed:seed
  in
  Harness.audit ~env protocol ~duration_s ~seed ()

let batched_gryff_run () =
  Harness.gryff_dc
    ~env:
      Harness.Env.(
        default
        |> with_batching
             (Some { Sim.Net.batch_us = 50; batch_max = 32; adaptive = false }))
    ~mode:Gryff.Config.Rsc ~service_time_us:20 ~n_clients:12 ~conflict:0.2
    ~write_ratio:0.4 ~n_keys:200 ~duration_s:1.0 ~seed:13 ()

let pinned ~run ~families ~digest () =
  let r = run () in
  List.iter
    (fun prefix -> check Alcotest.bool (prefix ^ "* fired") true (fires r prefix))
    families;
  check Alcotest.string "counter snapshot digest" digest (snapshot_digest r)

let suites =
  [
    ( "metrics.snapshot",
      [
        Alcotest.test_case "spanner-rss torn-migration audit" `Slow
          (pinned
             ~run:(fun () ->
               preset_audit Chaos.Audit.Spanner_rss Chaos.Nemesis.Torn_migration)
             ~families:[ "rw."; "ro."; "place."; "failover."; "durable." ]
             ~digest:"80c163b10227317b2466f775545fc147");
        Alcotest.test_case "gryff-rsc leader-kill audit" `Slow
          (pinned
             ~run:(fun () ->
               preset_audit Chaos.Audit.Gryff_rsc Chaos.Nemesis.Leader_kill)
             ~families:[ "read."; "write."; "failover.rpc_" ]
             ~digest:"5672b27d0ddc7418c5a34dcdaee279d5");
        Alcotest.test_case "spanner single-DC flow-armed run" `Slow
          (pinned ~run:Test_flow.armed_spanner_run ~families:[ "flow." ]
             ~digest:"037359a9e30aa6da92e777a332ea56df");
        Alcotest.test_case "gryff single-DC batched run" `Slow
          (pinned ~run:batched_gryff_run ~families:[ "batch." ]
             ~digest:"004dab644db82e34e9d6d12325270c03");
      ] );
  ]
