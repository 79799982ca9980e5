(* End-to-end oracle: every solver agrees with the brute-force optimum on
   small random instances. *)
open Pbo

let check_solver name solve seed problem =
  let reference = Bsolo.Exhaustive.optimum problem in
  let outcome = solve problem in
  match reference, outcome.Bsolo.Outcome.status, outcome.Bsolo.Outcome.best with
  | None, Bsolo.Outcome.Unsatisfiable, _ -> ()
  | None, s, _ ->
    Alcotest.failf "%s seed=%d: expected UNSAT, got %s" name seed (Bsolo.Outcome.status_name s)
  | Some (_, opt), (Bsolo.Outcome.Optimal | Bsolo.Outcome.Satisfiable), Some (m, c) ->
    if not (Model.satisfies problem m) then
      Alcotest.failf "%s seed=%d: reported model violates a constraint" name seed;
    if Model.cost problem m <> c then
      Alcotest.failf "%s seed=%d: reported cost %d but model costs %d" name seed c
        (Model.cost problem m);
    if c <> opt then Alcotest.failf "%s seed=%d: cost %d, optimum %d" name seed c opt
  | Some _, s, _ ->
    Alcotest.failf "%s seed=%d: expected optimum, got %s" name seed (Bsolo.Outcome.status_name s)

let solvers =
  [
    "bsolo-plain", (fun p -> Bsolo.Solver.solve ~options:(Bsolo.Options.with_lb Bsolo.Options.Plain) p);
    "bsolo-mis", (fun p -> Bsolo.Solver.solve ~options:(Bsolo.Options.with_lb Bsolo.Options.Mis) p);
    "bsolo-lgr", (fun p -> Bsolo.Solver.solve ~options:(Bsolo.Options.with_lb Bsolo.Options.Lgr) p);
    "bsolo-lpr", (fun p -> Bsolo.Solver.solve ~options:(Bsolo.Options.with_lb Bsolo.Options.Lpr) p);
    "pbs-like", (fun p -> Bsolo.Solver.solve ~options:Bsolo.Options.pbs p);
    "galena-like", (fun p -> Bsolo.Solver.solve ~options:Bsolo.Options.galena p);
    "milp", (fun p -> Milp.Branch_and_bound.solve p);
  ]

let agreement_cases =
  let case (name, solve) =
    let run () =
      for seed = 0 to 80 do
        check_solver name solve seed (Gen.problem seed)
      done;
      for seed = 0 to 40 do
        check_solver name solve seed (Gen.covering seed)
      done
    in
    Alcotest.test_case (name ^ " matches brute force") `Slow run
  in
  List.map case solvers

let satisfaction_case =
  let run () =
    for seed = 0 to 40 do
      let problem = Gen.problem ~config:{ Gen.default with with_objective = false } seed in
      let reference = Bsolo.Exhaustive.optimum problem in
      let outcome = Bsolo.Solver.solve problem in
      match reference, outcome.Bsolo.Outcome.status with
      | None, Bsolo.Outcome.Unsatisfiable -> ()
      | Some _, Bsolo.Outcome.Satisfiable ->
        (match outcome.best with
        | Some (m, _) ->
          if not (Model.satisfies problem m) then Alcotest.failf "seed=%d: bad model" seed
        | None -> Alcotest.failf "seed=%d: no model" seed)
      | _, s ->
        Alcotest.failf "seed=%d: mismatch (%s)" seed (Bsolo.Outcome.status_name s)
    done
  in
  [ Alcotest.test_case "satisfaction instances" `Slow run ]

let suite = agreement_cases @ satisfaction_case

(* Larger instances stress bound conflicts and the LP path more. *)
let larger_cases =
  let config = { Gen.default with nvars = 12; nconstrs = 16; max_cost = 20; max_coeff = 6 } in
  let case (name, solve) =
    let run () =
      for seed = 100 to 140 do
        check_solver name solve seed (Gen.problem ~config seed)
      done;
      for seed = 100 to 120 do
        check_solver name solve seed (Gen.covering ~nvars:12 ~nclauses:18 seed)
      done
    in
    Alcotest.test_case (name ^ " matches brute force (larger)") `Slow run
  in
  List.map case solvers

(* Telemetry end-to-end: the machine-readable report must agree with the
   returned outcome, and the recorded incumbent trajectory must be
   strictly decreasing. *)
let telemetry_cases =
  let run () =
    let config = { Gen.default with nvars = 12; nconstrs = 16; max_cost = 20; max_coeff = 6 } in
    (* pick an instance that has a model, so incumbents are recorded *)
    let rec sat_instance seed =
      if seed > 140 then Alcotest.fail "no satisfiable instance in seed range"
      else begin
        let problem = Gen.problem ~config seed in
        match Bsolo.Exhaustive.optimum problem with
        | Some _ -> problem
        | None -> sat_instance (seed + 1)
      end
    in
    let problem = sat_instance 100 in
    let path = Filename.temp_file "bsolo_e2e" ".rec" in
    let options = Bsolo.Options.default in
    let header =
      {
        Telemetry.Recorder.h_run_id = "e2e";
        h_engine = "bsolo";
        h_lb_method = Bsolo.Options.name Bsolo.Options.lb_methods options.lb_method;
        h_started = Unix.gettimeofday ();
        h_nvars = Pbo.Problem.nvars problem;
        h_nconstraints = Array.length (Pbo.Problem.constraints problem);
        h_flags = Bsolo.Replay.flags_of_options options;
        h_lgr_iters = options.lgr_iters;
      }
    in
    let recorder = Telemetry.Recorder.open_file path header in
    let tel = Telemetry.Ctx.create ~timing:true ~recorder () in
    let options = { options with telemetry = Some tel } in
    let outcome = Bsolo.Solver.solve ~options problem in
    let report = Bsolo.Report.make ~problem ~options ~telemetry:tel outcome in
    (match Telemetry.Json.of_string (Bsolo.Report.to_string report) with
    | Error e -> Alcotest.failf "report does not parse: %s" e
    | Ok json ->
      (match Gen.report_counters json with
      | None -> Alcotest.fail "report has no counters"
      | Some c ->
        if c <> outcome.Bsolo.Outcome.counters then
          Alcotest.fail "report counters differ from Outcome.counters"));
    Telemetry.Ctx.close tel;
    let rc =
      match Telemetry.Recorder.read_file path with
      | Ok rc -> rc
      | Error msg -> Alcotest.failf "recording does not read: %s" msg
    in
    Sys.remove path;
    let trajectory =
      List.filter_map
        (function _, Telemetry.Recorder.Incumbent { cost } -> Some cost | _ -> None)
        rc.r_events
    in
    if trajectory = [] then Alcotest.fail "no incumbent events recorded";
    let rec decreasing = function
      | a :: (b :: _ as rest) -> a > b && decreasing rest
      | [ _ ] | [] -> true
    in
    if not (decreasing trajectory) then
      Alcotest.fail "recorded incumbent trajectory is not strictly decreasing";
    (match outcome.Bsolo.Outcome.best with
    | Some (_, c) ->
      Alcotest.(check int) "last recorded incumbent is the final cost" c
        (List.nth trajectory (List.length trajectory - 1))
    | None -> Alcotest.fail "expected a model on this instance")
  in
  [ Alcotest.test_case "telemetry report and trace agree with outcome" `Quick run ]

let suite = suite @ larger_cases @ telemetry_cases
