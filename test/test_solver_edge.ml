open Pbo

(* Edge cases and option behaviour of the drivers. *)

let empty_problem () =
  let p = Problem.Builder.build (Problem.Builder.create ()) in
  let o = Bsolo.Solver.solve p in
  Alcotest.(check string) "satisfiable" "SATISFIABLE" (Bsolo.Outcome.status_name o.status)

let trivially_unsat () =
  let b = Problem.Builder.create ~nvars:1 () in
  Problem.Builder.add_ge b [ 1, Lit.pos 0 ] 5;
  let p = Problem.Builder.build b in
  List.iter
    (fun solve ->
      let o = solve p in
      Alcotest.(check string) "unsat" "UNSATISFIABLE"
        (Bsolo.Outcome.status_name o.Bsolo.Outcome.status))
    [
      Bsolo.Solver.solve ?options:None;
      Bsolo.Solver.solve ~options:Bsolo.Options.pbs;
      Milp.Branch_and_bound.solve ?options:None;
    ]

let unsat_by_propagation () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0 ];
  Problem.Builder.add_clause b [ Lit.neg 0 ];
  let p = Problem.Builder.build b in
  let o = Bsolo.Solver.solve p in
  Alcotest.(check string) "unsat" "UNSATISFIABLE" (Bsolo.Outcome.status_name o.status)

let zero_cost_objective () =
  (* objective with no cost terms behaves like satisfaction with cost 0 *)
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  Problem.Builder.set_objective b [];
  let p = Problem.Builder.build b in
  let o = Bsolo.Solver.solve p in
  Alcotest.(check (option int)) "cost 0" (Some 0) (Bsolo.Outcome.best_cost o)

let objective_offset_reported () =
  (* min -2 x0 over clause (x0): optimum picks x0 true, cost -2 *)
  let b = Problem.Builder.create ~nvars:1 () in
  Problem.Builder.add_clause b [ Lit.pos 0 ];
  Problem.Builder.set_objective b [ -2, Lit.pos 0 ];
  let p = Problem.Builder.build b in
  let o = Bsolo.Solver.solve p in
  Alcotest.(check (option int)) "negative optimum" (Some (-2)) (Bsolo.Outcome.best_cost o);
  let o2 = Bsolo.Solver.solve ~options:Bsolo.Options.pbs p in
  Alcotest.(check (option int)) "linear search agrees" (Some (-2)) (Bsolo.Outcome.best_cost o2);
  let o3 = Milp.Branch_and_bound.solve p in
  Alcotest.(check (option int)) "milp agrees" (Some (-2)) (Bsolo.Outcome.best_cost o3)

let conflict_limit_reached () =
  let p = Benchgen.Two_level.generate 1 in
  let o =
    Bsolo.Solver.solve
      ~options:{ (Bsolo.Options.with_lb Bsolo.Options.Plain) with conflict_limit = Some 5 }
      p
  in
  Alcotest.(check string) "unknown" "UNKNOWN" (Bsolo.Outcome.status_name o.status)

let node_limit_respected () =
  let p = Benchgen.Two_level.generate 1 in
  let o = Milp.Branch_and_bound.solve ~options:{ Bsolo.Options.default with node_limit = Some 2 } p in
  Alcotest.(check bool) "at most a few nodes" true (Bsolo.Outcome.counter o "search.nodes" <= 3)

let incumbent_hook_decreasing () =
  let p = Gen.covering ~nvars:12 ~nclauses:14 9 in
  let seen = ref [] in
  let o =
    Bsolo.Solver.solve
      ~options:
        { Bsolo.Options.default with on_incumbent = Some (fun _ c -> seen := c :: !seen) }
      p
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a < b && decreasing rest
    | [ _ ] | [] -> true
  in
  (* [seen] is newest-first, so it must be strictly increasing backwards *)
  Alcotest.(check bool) "strictly improving" true (decreasing !seen);
  match Bsolo.Outcome.best_cost o, !seen with
  | Some c, last :: _ -> Alcotest.(check int) "last hook = best" c last
  | Some _, [] -> Alcotest.fail "no incumbents reported"
  | None, _ -> Alcotest.fail "expected a solution"

let time_limit_quick_exit () =
  let p = Benchgen.Synthesis.generate 2 in
  let t0 = Unix.gettimeofday () in
  let o = Bsolo.Solver.solve ~options:{ Bsolo.Options.default with time_limit = Some 0.3 } p in
  let elapsed = Unix.gettimeofday () -. t0 in
  ignore o.status;
  Alcotest.(check bool) "returns promptly" true (elapsed < 3.0)

let options_toggles_agree () =
  (* every combination of technique toggles stays correct *)
  let toggles =
    [
      { Bsolo.Options.default with knapsack_cuts = false };
      { Bsolo.Options.default with cardinality_inference = false };
      { Bsolo.Options.default with lp_guided_branching = false };
      { Bsolo.Options.default with bound_conflict_learning = false };
      { Bsolo.Options.default with preprocess = false };
      { Bsolo.Options.default with reduce_db = false };
      { Bsolo.Options.default with restarts = true };
      { (Bsolo.Options.with_lb Bsolo.Options.Plain) with restarts = true };
      { Bsolo.Options.default with knapsack_cuts = false; cardinality_inference = false;
        lp_guided_branching = false; bound_conflict_learning = false; preprocess = false };
    ]
  in
  for seed = 0 to 25 do
    let p = Gen.problem seed in
    let reference = Bsolo.Exhaustive.optimum p in
    List.iteri
      (fun i options ->
        let o = Bsolo.Solver.solve ~options p in
        match reference, Bsolo.Outcome.best_cost o with
        | None, None -> ()
        | Some (_, opt), Some c ->
          if opt <> c then Alcotest.failf "seed %d toggle %d: %d <> %d" seed i c opt
        | None, Some _ | Some _, None -> Alcotest.failf "seed %d toggle %d: status" seed i)
      toggles
  done

let suite =
  [
    Alcotest.test_case "empty problem" `Quick empty_problem;
    Alcotest.test_case "trivially unsat" `Quick trivially_unsat;
    Alcotest.test_case "unsat by propagation" `Quick unsat_by_propagation;
    Alcotest.test_case "zero cost objective" `Quick zero_cost_objective;
    Alcotest.test_case "objective offset" `Quick objective_offset_reported;
    Alcotest.test_case "conflict limit" `Quick conflict_limit_reached;
    Alcotest.test_case "node limit" `Quick node_limit_respected;
    Alcotest.test_case "incumbent hook decreasing" `Quick incumbent_hook_decreasing;
    Alcotest.test_case "time limit quick exit" `Quick time_limit_quick_exit;
    Alcotest.test_case "option toggles stay correct" `Slow options_toggles_agree;
  ]

let exhaustive_size_guard () =
  let b = Problem.Builder.create ~nvars:30 () in
  let p = Problem.Builder.build b in
  Alcotest.check_raises "too many variables"
    (Invalid_argument "Exhaustive: too many variables") (fun () ->
      ignore (Bsolo.Exhaustive.optimum p))

let suite =
  suite
  @ [
      Alcotest.test_case "exhaustive size guard" `Quick exhaustive_size_guard;
    ]
