let () =
  Runner.run "tm2c"
    [
      ("engine", Test_engine.suite);
      ("noc", Test_noc.suite);
      ("memory", Test_memory.suite);
      ("tm2c", Test_tm2c.suite);
      ("dtm", Test_dtm.suite);
      ("alloc", Test_alloc.suite);
      ("apps", Test_apps.suite);
      ("workload", Test_workload.suite);
      ("integration", Test_integration.suite);
      ("export", Test_export.suite);
      ("profile", Test_profile.suite);
      ("fault", Test_fault.suite);
      ("failover", Test_failover.suite);
      ("sketch", Test_sketch.suite);
      ("recorder", Test_recorder.suite);
      ("lint", Test_lint.suite);
      ("openloop", Test_openloop.suite);
      ("golden", Test_golden.suite);
    ]
