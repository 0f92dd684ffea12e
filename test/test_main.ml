let () =
  Alcotest.run "rss-repro"
    (Test_sim.suites @ Test_rpc.suites @ Test_core.suites @ Test_workload.suites
   @ Test_spanner.suites @ Test_gryff.suites @ Test_photoapp.suites @ Test_locks.suites @ Test_replication.suites @ Test_trace.suites @ Test_composition.suites @ Test_ioa.suites @ Test_fuzz.suites @ Test_chaos.suites @ Test_obs.suites @ Test_scale.suites @ Test_batch.suites @ Test_place.suites @ Test_stats.suites @ Test_durable.suites @ Test_explore.suites @ Test_flow.suites @ Test_metrics.suites @ Test_structure.suites)
