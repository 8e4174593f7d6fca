let () =
  Alcotest.run "mojave"
    (Test_obs.suites @ Test_fir.suites @ Test_runtime.suites @ Test_spec.suites
    @ Test_vm.suites @ Test_migrate.suites @ Test_codecache.suites
    @ Test_net.suites
    @ Test_minic.suites @ Test_miniml.suites @ Test_pascal.suites
    @ Test_mcc.suites @ Test_faults.suites @ Test_delta.suites @ Test_warmhop.suites
    @ Test_extended.suites @ Test_registry.suites @ Test_balance.suites
    @ Test_dspec.suites @ Test_golden.suites)
