let () =
  Alcotest.run "nascent-rco"
    [
      ("support", Test_support.suite);
      ("checks", Test_checks.suite);
      ("oracle", Test_oracle.suite);
      ("frontend", Test_frontend.suite);
      ("analysis", Test_analysis.suite);
      ("ir", Test_ir.suite);
      ("verify", Test_verify.suite);
      ("fault", Test_fault.suite);
      ("interp", Test_interp.suite);
      ("optimizer", Test_optimizer.suite);
      ("core-passes", Test_core_passes.suite);
      ("induction", Test_induction.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("random", Test_random.suite);
      ("parallel", Test_parallel.suite);
      ("experiments", Test_experiments.suite);
      ("harness", Test_harness.suite);
      ("server", Test_server.suite);
      ("frame", Test_frame.suite);
      ("router", Test_router.suite);
      ("transport", Test_transport.suite);
    ]
