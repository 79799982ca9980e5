open Pbo

(* Verdict agreement with bsolo on satisfaction instances (the regime the
   paper highlights as CPLEX's weakness — slow, but never wrong). *)
let satisfaction_verdicts () =
  for seed = 0 to 25 do
    let problem =
      Gen.problem
        ~config:{ Gen.default with with_objective = false; nvars = 7; nconstrs = 8 }
        seed
    in
    let a = Bsolo.Solver.solve problem in
    let b = Milp.Branch_and_bound.solve problem in
    match a.status, b.status with
    | Bsolo.Outcome.Satisfiable, Bsolo.Outcome.Satisfiable
    | Bsolo.Outcome.Unsatisfiable, Bsolo.Outcome.Unsatisfiable ->
      ()
    | _, Bsolo.Outcome.Unknown -> ()  (* milp may time out; never wrong *)
    | sa, sb ->
      Alcotest.failf "seed %d: bsolo %s, milp %s" seed (Bsolo.Outcome.status_name sa)
        (Bsolo.Outcome.status_name sb)
  done

let reports_model_that_satisfies () =
  for seed = 0 to 25 do
    let problem = Gen.covering seed in
    let o = Milp.Branch_and_bound.solve problem in
    match o.best with
    | Some (m, c) ->
      Alcotest.(check bool) "satisfies" true (Model.satisfies problem m);
      Alcotest.(check int) "cost" (Model.cost problem m) c
    | None -> Alcotest.failf "seed %d: no model" seed
  done

let anytime_bound_under_budget () =
  let problem = Benchgen.Synthesis.generate 9 in
  let o =
    Milp.Branch_and_bound.solve
      ~options:{ Bsolo.Options.default with node_limit = Some 5 }
      problem
  in
  (* with so few nodes the run must end Unknown, and any model it reports
     must be genuine *)
  (match o.status with
  | Bsolo.Outcome.Unknown -> ()
  | s -> Alcotest.failf "expected UNKNOWN, got %s" (Bsolo.Outcome.status_name s));
  match o.best with
  | Some (m, _) -> Alcotest.(check bool) "genuine" true (Model.satisfies problem m)
  | None -> ()

let objective_offsets () =
  (* negative raw costs exercise the offset path of the relaxation *)
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  Problem.Builder.set_objective b [ -3, Lit.pos 0; 2, Lit.pos 1 ];
  let p = Problem.Builder.build b in
  let o = Milp.Branch_and_bound.solve p in
  Alcotest.(check (option int)) "optimum" (Some (-3)) (Bsolo.Outcome.best_cost o)

(* Every node re-solves one persistent LP warm from the previous node's
   basis, so phase 1 (run only by cold starts and periodic rebuilds) is a
   small share of the simplex work.  Solving each node from scratch spends
   well over half of it there. *)
let warm_node_solves () =
  match Test_benchmark_files.benchmarks_dir () with
  | None -> ()  (* tolerated when running from an install tree *)
  | Some dir ->
    let problem = Opb.parse_file (Filename.concat dir "knap-s1.opb") in
    let tel = Telemetry.Ctx.create () in
    let options = { Bsolo.Options.default with node_limit = Some 500; telemetry = Some tel } in
    ignore (Milp.Branch_and_bound.solve ~options problem);
    let get name =
      Option.value ~default:0 (Telemetry.Registry.find_counter tel.Telemetry.Ctx.registry name)
    in
    let phase1 = get "simplex.phase1_iters" and iters = get "simplex.iterations" in
    if phase1 * 4 >= iters then
      Alcotest.failf "phase 1 took %d of %d simplex iterations" phase1 iters

let suite =
  [
    Alcotest.test_case "satisfaction verdicts" `Quick satisfaction_verdicts;
    Alcotest.test_case "warm node re-solves" `Quick warm_node_solves;
    Alcotest.test_case "models satisfy" `Quick reports_model_that_satisfies;
    Alcotest.test_case "anytime under budget" `Quick anytime_bound_under_budget;
    Alcotest.test_case "objective offsets" `Quick objective_offsets;
  ]
