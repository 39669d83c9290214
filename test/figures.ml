let () = Runner.run "tm2c-figures" [ ("harness", Test_harness.suite) ]
