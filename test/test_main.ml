let () =
  Alcotest.run "repro"
    (Test_util.suites @ Test_sim.suites @ Test_obs.suites @ Test_storage.suites
   @ Test_check.suites @ Test_core.suites @ Test_batching.suites @ Test_certindex.suites
   @ Test_workload.suites
   @ Test_consistency.suites @ Test_tiers.suites @ Test_faults.suites @ Test_certha.suites @ Test_controlplane.suites
   @ Test_overload.suites
   @ Test_experiments.suites)
