let () =
  Alcotest.run "capri"
    [
      ("smoke", Test_smoke.suite);
      ("ir", Test_ir.suite);
      ("dataflow", Test_dataflow.suite);
      ("form", Test_form.suite);
      ("ckpt", Test_ckpt.suite);
      ("unroll", Test_unroll.suite);
      ("opt", Test_opt.suite);
      ("arch", Test_arch.suite);
      ("persist", Test_persist.suite);
      ("recovery", Test_recovery.suite);
      ("workloads", Test_workloads.suite);
      ("modes", Test_modes.suite);
      ("extensions", Test_extensions.suite);
      ("parser", Test_parser.suite);
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("runtime", Test_runtime_bits.suite);
      ("parallel", Test_parallel.suite);
      ("shapes", Test_shapes.suite);
      ("service", Test_service.suite);
      ("fuzz", Test_fuzz.suite);
      ("engine", Test_engine.suite);
      ("qcheck", Test_qcheck.suite);
      ("pin", Test_pin.suite);
    ]
