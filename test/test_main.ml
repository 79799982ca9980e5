let () =
  Alcotest.run "pbo-repro"
    [
      ("lit", Test_lit.suite);
      ("value", Test_value.suite);
      ("constr", Test_constr.suite);
      ("problem", Test_problem.suite);
      ("opb", Test_opb.suite);
      ("encode", Test_encode.suite);
      ("containers", Test_containers.suite);
      ("engine", Test_engine.suite);
      ("simplex", Test_simplex.suite);
      ("lagrangian", Test_lagrangian.suite);
      ("lowerbound", Test_lowerbound.suite);
      ("knapsack", Test_knapsack.suite);
      ("preprocess", Test_preprocess.suite);
      ("cuts", Test_cuts.suite);
      ("strengthen", Test_strengthen.suite);
      ("benchgen", Test_benchgen.suite);
      ("benchmark-files", Test_benchmark_files.suite);
      ("solver-edge", Test_solver_edge.suite);
      ("enumerate", Test_enumerate.suite);
      ("certify", Test_certify.suite);
      ("dimacs", Test_dimacs.suite);
      ("bcp-modes", Test_bcp_modes.suite);
      ("portfolio", Test_portfolio.suite);
      ("milp", Test_milp.suite);
      ("cutting-planes", Test_cutting_planes.suite);
      ("proof", Test_proof.suite);
      ("telemetry", Test_telemetry.suite);
      ("observability", Test_observability.suite);
      ("obsd", Test_obsd.suite);
      ("inspect", Test_inspect.suite);
      ("recorder", Test_recorder.suite);
      ("fuzz", Test_fuzz.suite);
      ("stress", Test_stress.suite);
      ("solvers", Test_solvers.suite);
    ]
