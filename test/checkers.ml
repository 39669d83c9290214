let () =
  Runner.run "tm2c-checkers"
    [ ("check", Test_check.suite); ("stream", Test_stream.suite) ]
