let solves_each_family () =
  let instances =
    [
      Benchgen.Routing.generate ~params:{ Benchgen.Routing.default with nets = 10 } 1;
      Benchgen.Two_level.generate
        ~params:{ Benchgen.Two_level.default with minterms = 20; implicants = 12 }
        1;
      Benchgen.Acc.generate ~params:{ Benchgen.Acc.default with tasks = 8; slots = 3 } 1;
    ]
  in
  List.iter
    (fun problem ->
      let r = Portfolio.solve ~budget:8.0 problem in
      (match r.outcome.status with
      | Bsolo.Outcome.Optimal | Bsolo.Outcome.Satisfiable -> ()
      | s -> Alcotest.failf "portfolio failed: %s" (Bsolo.Outcome.status_name s));
      Alcotest.(check (option string)) "no disagreement" None r.disagreement)
    instances

let agrees_with_reference () =
  for seed = 0 to 20 do
    let problem = Gen.covering seed in
    let reference = Bsolo.Exhaustive.optimum problem in
    let r = Portfolio.solve ~budget:8.0 problem in
    match reference, Bsolo.Outcome.best_cost r.outcome with
    | None, None -> ()
    | Some (_, opt), Some c ->
      if c <> opt then Alcotest.failf "seed %d: %d <> %d" seed c opt
    | None, Some _ | Some _, None -> Alcotest.failf "seed %d: status" seed
  done

let early_stop_on_proof () =
  let problem = Gen.covering 3 in
  let r = Portfolio.solve ~budget:40.0 problem in
  (* the first entry proves optimality on this easy instance, so only one
     run should have happened *)
  Alcotest.(check int) "single run" 1 (List.length r.runs);
  Alcotest.(check string) "winner" "bsolo-lpr" r.winner

let custom_entries () =
  let entry =
    {
      Portfolio.pname = "only-mis";
      psolve =
        (fun ~options problem ->
          Bsolo.Solver.solve
            ~options:{ options with Bsolo.Options.lb_method = Bsolo.Options.Mis }
            problem);
    }
  in
  let r = Portfolio.solve ~entries:[ entry ] ~budget:5.0 (Gen.covering 2) in
  Alcotest.(check string) "winner" "only-mis" r.winner

(* --- result ranking -------------------------------------------------------- *)

let outcome ?best status = { Bsolo.Outcome.status; best; counters = []; elapsed = 0.0 }

let better_ranking () =
  let model =
    match Bsolo.Exhaustive.optimum (Gen.covering 0) with
    | Some (m, _) -> m
    | None -> Alcotest.fail "covering 0 should be satisfiable"
  in
  let check msg expected a b =
    Alcotest.(check bool) msg expected (Portfolio.better a b)
  in
  let opt = outcome ~best:(model, 5) Bsolo.Outcome.Optimal in
  let unsat = outcome Bsolo.Outcome.Unsatisfiable in
  let sat c = outcome ~best:(model, c) Bsolo.Outcome.Satisfiable in
  let unk = outcome Bsolo.Outcome.Unknown in
  (* completed proofs outrank a mere model, whatever its cost *)
  check "unsat beats sat" true unsat (sat 0);
  check "optimal beats sat" true opt (sat 0);
  check "sat does not beat unsat" false (sat 0) unsat;
  check "sat beats unknown" true (sat 100) unk;
  check "unknown beats nothing" false unk (sat 100);
  (* within a rank, lower cost wins; ties keep the earlier entry *)
  check "cheaper sat wins" true (sat 3) (sat 7);
  check "costlier sat loses" false (sat 7) (sat 3);
  check "equal cost is a tie" false (sat 3) (sat 3);
  check "model beats no model" true (sat 3) (outcome Bsolo.Outcome.Satisfiable)

(* --- sequential time accounting -------------------------------------------- *)

(* An instant unproved finisher must donate its unused slice: with two
   entries and an 8 s budget the naive split gives each 4 s, but after the
   first returns in ~0 s the survivor should inherit (almost) the full
   budget. *)
let sequential_redistribution () =
  let seen = ref None in
  let instant =
    {
      Portfolio.pname = "instant";
      psolve = (fun ~options:_ _ -> outcome Bsolo.Outcome.Unknown);
    }
  in
  let recorder =
    {
      Portfolio.pname = "recorder";
      psolve =
        (fun ~options _ ->
          seen := options.Bsolo.Options.time_limit;
          outcome Bsolo.Outcome.Unknown);
    }
  in
  let r = Portfolio.solve ~entries:[ instant; recorder ] ~budget:8.0 (Gen.covering 1) in
  Alcotest.(check int) "both ran" 2 (List.length r.runs);
  match !seen with
  | None -> Alcotest.fail "recorder saw no time limit"
  | Some slice ->
    if slice < 6.0 then
      Alcotest.failf "unused remainder not redistributed: slice %.2f < 6.0" slice

(* --- parallel portfolio ---------------------------------------------------- *)

(* Same optimum from the parallel portfolio at any width as from the
   sequential one and from a plain solver call. *)
let jobs_equivalence =
  QCheck.Test.make ~count:8 ~name:"jobs {1,2,4} agree with plain solve"
    QCheck.(int_range 0 40)
    (fun seed ->
      let problem = Gen.covering ~nvars:12 ~nclauses:18 seed in
      let plain = Bsolo.Solver.solve ~options:Bsolo.Options.default problem in
      let reference = Bsolo.Outcome.best_cost plain in
      List.for_all
        (fun jobs ->
          let r = Portfolio.solve ~jobs ~budget:20.0 problem in
          if r.failures <> [] then
            QCheck.Test.fail_reportf "jobs %d: worker crashed: %s" jobs
              (snd (List.hd r.failures));
          let cost = Bsolo.Outcome.best_cost r.outcome in
          if cost <> reference then
            QCheck.Test.fail_reportf "jobs %d: cost %s <> plain %s" jobs
              (match cost with Some c -> string_of_int c | None -> "-")
              (match reference with Some c -> string_of_int c | None -> "-");
          true)
        [ 1; 2; 4 ])

let member_run (r : Portfolio.report) name =
  match List.assoc_opt name r.runs with
  | Some o -> o
  | None -> Alcotest.failf "%s run missing from report" name

(* A broadcast incumbent must actually prune: an oracle entry publishes
   the known optimum through the shared cell, and the bsolo worker that
   imports it should search strictly less than it does alone.  The
   import carries its model, so the bsolo worker adopts the optimum as
   its own incumbent and proves it Optimal on its own. *)
let oracle_broadcast_prunes () =
  let problem = Gen.covering ~nvars:18 ~nclauses:30 5 in
  let model, opt =
    match Bsolo.Exhaustive.optimum problem with
    | Some (m, c) -> m, c
    | None -> Alcotest.fail "instance should be satisfiable"
  in
  let tel = Telemetry.Ctx.create ~timing:false () in
  let r =
    Portfolio.solve ~telemetry:tel
      ~entries:[ Gen.publisher "oracle" model opt; Gen.importer ]
      ~jobs:2 ~budget:20.0 problem
  in
  Alcotest.(check (option string)) "no disagreement" None r.disagreement;
  Alcotest.(check (option int)) "optimal cost" (Some opt) (Bsolo.Outcome.best_cost r.outcome);
  let imports =
    Option.value ~default:0
      (Telemetry.Registry.find_counter tel.registry "portfolio.bsolo.search.incumbent_imports")
  in
  if imports < 1 then Alcotest.failf "expected >= 1 incumbent import, got %d" imports;
  let own = member_run r "bsolo" in
  Alcotest.(check string) "bsolo proves the optimum itself" "OPTIMAL"
    (Bsolo.Outcome.status_name own.status);
  Alcotest.(check (option int)) "bsolo holds the imported optimum" (Some opt)
    (Bsolo.Outcome.best_cost own);
  Alcotest.(check string) "the bsolo run wins" "bsolo" r.winner;
  let alone = Bsolo.Solver.solve ~options:Bsolo.Options.default problem in
  let decisions o = Bsolo.Outcome.counter o "engine.decisions" in
  if decisions own >= decisions alone then
    Alcotest.failf "broadcast did not prune: %d decisions with oracle, %d alone"
      (decisions own) (decisions alone)

(* [search.incumbent_imports] is registered at the first import, so it
   is listed only where a search imported a model: not by a plain solve,
   and not at the top level of a portfolio caller, which never searches
   (the members' counts, under [portfolio.<m>.], are checked by
   [oracle_broadcast_prunes]). *)
let imports_counted_where_they_happen () =
  let problem = Gen.covering 4 in
  let listed (tel : Telemetry.Ctx.t) =
    Telemetry.Registry.find_counter tel.registry "search.incumbent_imports" <> None
  in
  let tel = Telemetry.Ctx.create ~timing:false () in
  let o = Bsolo.Solver.solve ~options:{ Bsolo.Options.default with telemetry = Some tel } problem in
  Alcotest.(check bool) "a plain solve lists no imports" false (listed tel);
  Alcotest.(check bool) "nor does its outcome" false
    (List.mem_assoc "search.incumbent_imports" o.counters);
  let tel = Telemetry.Ctx.create ~timing:false () in
  let r = Portfolio.solve ~telemetry:tel ~jobs:1 ~budget:20.0 problem in
  Alcotest.(check bool) "a member ran" true (r.runs <> []);
  Alcotest.(check bool) "the portfolio caller lists no imports" false (listed tel)

(* A bad claim is refused, not trusted.  A liar offers, below the
   optimum, a model that breaks a clause or a feasible model under a
   cost it does not have.  Offered straight to a search through
   [external_incumbent], it is checked once, refused (counted in
   [search.incumbent_rejects]) and the search still proves the true
   optimum.  Broadcast in a portfolio, the shared cell refuses it, so an
   honest member's later broadcast still reaches the cell and the bsolo
   member imports it. *)
let bad_import_refused () =
  let problem = Gen.covering ~nvars:18 ~nclauses:30 5 in
  let model, opt =
    match Bsolo.Exhaustive.optimum problem with
    | Some (m, c) -> m, c
    | None -> Alcotest.fail "instance should be satisfiable"
  in
  let infeasible = Pbo.Model.of_array (Array.make (Pbo.Problem.nvars problem) false) in
  Alcotest.(check bool) "the all-false model breaks a clause" false
    (Pbo.Model.satisfies problem infeasible);
  List.iter
    (fun (what, bad, claimed) ->
      let tel = Telemetry.Ctx.create ~timing:false () in
      let options =
        {
          Bsolo.Options.default with
          telemetry = Some tel;
          external_incumbent = Some (fun () -> Some (claimed, bad, "liar"));
        }
      in
      let own = Bsolo.Solver.solve ~options problem in
      Alcotest.(check string) (what ^ ": the search still proves") "OPTIMAL"
        (Bsolo.Outcome.status_name own.status);
      Alcotest.(check (option int)) (what ^ ": the true optimum") (Some opt)
        (Bsolo.Outcome.best_cost own);
      let counter (tel : Telemetry.Ctx.t) name =
        Option.value ~default:0 (Telemetry.Registry.find_counter tel.registry name)
      in
      Alcotest.(check int) (what ^ ": refused once") 1 (counter tel "search.incumbent_rejects");
      Alcotest.(check int) (what ^ ": nothing imported") 0 (counter tel "search.incumbent_imports");
      let lied = Atomic.make false in
      let liar = Gen.publisher "liar" bad claimed in
      let liar =
        {
          liar with
          psolve =
            (fun ~options p ->
              let o = liar.psolve ~options p in
              Atomic.set lied true;
              o);
        }
      in
      let honest = Gen.publisher "honest" model opt in
      let honest =
        {
          honest with
          psolve =
            (fun ~options p ->
              let give_up = Unix.gettimeofday () +. 10.0 in
              while (not (Atomic.get lied)) && Unix.gettimeofday () < give_up do
                Unix.sleepf 0.001
              done;
              honest.psolve ~options p);
        }
      in
      let tel = Telemetry.Ctx.create ~timing:false () in
      let r =
        Portfolio.solve ~telemetry:tel ~entries:[ liar; honest; Gen.importer ] ~jobs:3
          ~budget:20.0 problem
      in
      let own = member_run r "bsolo" in
      Alcotest.(check string) (what ^ ": bsolo still proves") "OPTIMAL"
        (Bsolo.Outcome.status_name own.status);
      Alcotest.(check (option int)) (what ^ ": the true optimum, in a portfolio") (Some opt)
        (Bsolo.Outcome.best_cost own);
      let counter name = counter tel ("portfolio.bsolo.search." ^ name) in
      Alcotest.(check int) (what ^ ": the cell held no bad claim") 0 (counter "incumbent_rejects");
      Alcotest.(check int) (what ^ ": the honest broadcast imported") 1
        (counter "incumbent_imports"))
    [ "infeasible model", infeasible, opt - 1; "wrong cost", model, opt - 1 ]

(* After the join the caller's cell holds the portfolio's answer, so the
   final heartbeat has bounds even though every member cell is gone. *)
let caller_cell_holds_answer () =
  let problem = Gen.covering 3 in
  let cell = Telemetry.Profile.Cell.make ~name:"main" () in
  let tel = Telemetry.Ctx.create ~timing:false ~cell () in
  let r = Portfolio.solve ~telemetry:tel ~jobs:2 ~budget:20.0 problem in
  match r.outcome.status, Bsolo.Outcome.best_cost r.outcome with
  | Bsolo.Outcome.Optimal, Some c ->
    Alcotest.(check (float 0.)) "ub" (float_of_int c) (Telemetry.Profile.Cell.ub cell);
    Alcotest.(check (float 0.)) "lb" (float_of_int c) (Telemetry.Profile.Cell.lb cell)
  | s, _ -> Alcotest.failf "portfolio did not prove: %s" (Bsolo.Outcome.status_name s)

(* A crashing entry is isolated: reported under [failures], everyone else
   still runs and the portfolio still proves the optimum.  The other
   members are held until the crashing one has run: otherwise a member on
   the spawned worker can prove the optimum and raise the stop flag
   before worker 0 starts [boom], which is then skipped and never fails.
   The hold gives up after 10 s so a regression fails the assertions
   below instead of hanging. *)
let crash_isolation () =
  let boom_ran = Atomic.make false in
  let boom =
    {
      Portfolio.pname = "boom";
      psolve =
        (fun ~options:_ _ ->
          Atomic.set boom_ran true;
          failwith "kaboom");
    }
  in
  let held (e : Portfolio.entry) =
    {
      e with
      psolve =
        (fun ~options p ->
          let give_up = Unix.gettimeofday () +. 10.0 in
          while (not (Atomic.get boom_ran)) && Unix.gettimeofday () < give_up do
            Unix.sleepf 0.001
          done;
          e.psolve ~options p);
    }
  in
  let problem = Gen.covering 2 in
  let r =
    Portfolio.solve
      ~entries:(boom :: List.map held Portfolio.default_entries)
      ~jobs:2 ~budget:20.0 problem
  in
  (match List.assoc_opt "boom" r.failures with
  | Some msg when String.length msg > 0 -> ()
  | _ -> Alcotest.fail "crash not reported in failures");
  (match r.outcome.status with
  | Bsolo.Outcome.Optimal | Bsolo.Outcome.Unsatisfiable -> ()
  | s -> Alcotest.failf "portfolio did not recover from crash: %s" (Bsolo.Outcome.status_name s));
  Alcotest.(check (option string)) "no disagreement" None r.disagreement

(* With fewer jobs than entries a worker runs several members one after
   another; each must get its fair share of the time its worker has left,
   not whatever the first member leaves of the shared deadline.  Worker 0
   runs entries 0 and 2: entry 0 sleeps out its whole slice (half the
   budget), so entry 2 inherits the other half. *)
let worker_fair_share () =
  let seen = ref None in
  let entry pname psolve = { Portfolio.pname; psolve } in
  let instant = entry "instant" (fun ~options:_ _ -> outcome Bsolo.Outcome.Unknown) in
  let sleeper =
    entry "sleeper" (fun ~options _ ->
        Option.iter Unix.sleepf options.Bsolo.Options.time_limit;
        outcome Bsolo.Outcome.Unknown)
  in
  let recorder =
    entry "recorder" (fun ~options _ ->
        seen := options.Bsolo.Options.time_limit;
        outcome Bsolo.Outcome.Unknown)
  in
  let r =
    Portfolio.solve
      ~entries:[ sleeper; instant; recorder; { instant with pname = "instant-2" } ]
      ~jobs:2 ~budget:2.0 (Gen.covering 1)
  in
  Alcotest.(check int) "all ran" 4 (List.length r.runs);
  match !seen with
  | None -> Alcotest.fail "third entry saw no time limit"
  | Some slice ->
    if slice < 0.8 then Alcotest.failf "third entry starved: slice %.3f < 0.8" slice

(* One job is a pool of one worker: a raising entry is isolated there too,
   and the later entries still prove the optimum. *)
let crash_isolation_one_job () =
  let boom =
    { Portfolio.pname = "boom"; psolve = (fun ~options:_ _ -> failwith "kaboom") }
  in
  let problem = Gen.covering 2 in
  let r =
    Portfolio.solve ~entries:(boom :: Portfolio.default_entries) ~jobs:1 ~budget:20.0 problem
  in
  (match List.assoc_opt "boom" r.failures with
  | Some msg when String.length msg > 0 -> ()
  | _ -> Alcotest.fail "crash not reported in failures");
  let reference = Option.map snd (Bsolo.Exhaustive.optimum problem) in
  (match r.outcome.status with
  | Bsolo.Outcome.Optimal -> ()
  | s -> Alcotest.failf "portfolio did not recover from crash: %s" (Bsolo.Outcome.status_name s));
  Alcotest.(check (option int)) "optimum" reference (Bsolo.Outcome.best_cost r.outcome)

(* The member table brackets every member's run whatever the job count:
   inside its run, each member's registry is live under its merge prefix
   [portfolio.<name>.], next to its own cell, once per member; after the
   join no member entry remains. *)
let check_member_table jobs =
  let prefixed (e : Telemetry.Profile.entry) =
    String.starts_with ~prefix:"portfolio." e.prefix
  in
  let seen = Atomic.make [] in
  let entry pname =
    {
      Portfolio.pname;
      psolve =
        (fun ~options _ ->
          let tel = Option.get options.Bsolo.Options.telemetry in
          let mine =
            List.exists
              (fun (e : Telemetry.Profile.entry) ->
                e.prefix = "portfolio." ^ pname ^ "."
                && e.registry == tel.registry && e.cell == tel.cell)
              (Telemetry.Profile.live ())
          in
          let rec add () =
            let cur = Atomic.get seen in
            if not (Atomic.compare_and_set seen cur ((pname, mine) :: cur)) then add ()
          in
          add ();
          outcome Bsolo.Outcome.Unknown);
    }
  in
  let names = [ "a"; "b"; "c" ] in
  let r =
    Portfolio.solve ~entries:(List.map entry names) ~jobs ~budget:2.0 (Gen.covering 1)
  in
  Alcotest.(check int) (Printf.sprintf "jobs=%d: all ran" jobs) 3 (List.length r.runs);
  Alcotest.(check (list (pair string bool)))
    (Printf.sprintf "jobs=%d: each member live under its prefix" jobs)
    (List.map (fun n -> n, true) names)
    (List.sort compare (Atomic.get seen));
  Alcotest.(check int)
    (Printf.sprintf "jobs=%d: no member entry after the join" jobs)
    0
    (List.length (List.filter prefixed (Telemetry.Profile.live ())))

let member_hooks_one_job () = check_member_table 1
let member_table_two_jobs () = check_member_table 2

(* Each fact of a run has one name.  A single solve publishes one
   propagation count ([bcp.propagations]) and one LB-call count
   ([search.lb_calls]), and its outcome carries the registry's own
   snapshot; a portfolio publishes each member counter once, under its
   dotted family name after [portfolio.<member>.]. *)
let one_name_per_counter () =
  match Test_benchmark_files.benchmarks_dir () with
  | None -> ()  (* tolerated when running from an install tree *)
  | Some dir ->
    let problem = Pbo.Opb.parse_file (Filename.concat dir "synth-s1.opb") in
    List.iter
      (fun (lb, proc) ->
        let tel = Telemetry.Ctx.create () in
        let options = { (Bsolo.Options.with_lb lb) with telemetry = Some tel } in
        let o = Bsolo.Solver.solve ~options problem in
        let snapshot = Telemetry.Registry.counters tel.registry in
        List.iter
          (fun name ->
            if List.mem_assoc name snapshot then Alcotest.failf "--lb %s publishes %s" proc name)
          [ "engine.propagations"; proc ^ ".calls" ];
        if o.counters <> snapshot then
          Alcotest.failf "--lb %s: Outcome.counters is not the registry snapshot" proc)
      [ Bsolo.Options.Lpr, "lpr"; Bsolo.Options.Mis, "mis"; Bsolo.Options.Lgr, "lgr" ];
    let tel = Telemetry.Ctx.create () in
    let r = Portfolio.solve ~telemetry:tel ~jobs:1 ~budget:20.0 problem in
    Alcotest.(check bool) "a member ran" true (r.runs <> []);
    List.iter
      (fun (member, _) ->
        let prefix = "portfolio." ^ member ^ "." in
        let n = String.length prefix in
        let names =
          List.filter_map
            (fun (name, _) ->
              if String.starts_with ~prefix name then Some (String.sub name n (String.length name - n))
              else None)
            (Telemetry.Registry.counters tel.registry)
        in
        if not (List.mem "search.nodes" names) then
          Alcotest.failf "%s: no search.nodes merged" member;
        List.iter
          (fun name ->
            if not (String.contains name '.') then
              Alcotest.failf "%s: counter %s%s has no family" member prefix name)
          names)
      r.runs

(* A portfolio recording is the members' part files stitched: with one
   job or two, each member that ran has one section, ending in its fin. *)
let trace_attributes_members () =
  let problem = Gen.covering 3 in
  List.iter
    (fun jobs ->
      let base = Filename.temp_file "bsolo-portfolio" ".rec" in
      let r = Portfolio.solve ~record_file:base ~jobs ~budget:20.0 problem in
      let rc =
        match Telemetry.Recorder.read_file base with
        | Ok rc -> rc
        | Error msg -> Alcotest.failf "jobs=%d: %s" jobs msg
      in
      Sys.remove base;
      (* (member, its last event) per section, in file order *)
      let sections =
        List.fold_left
          (fun acc (_, ev) ->
            match ev, acc with
            | Telemetry.Recorder.Section m, _ -> (m, None) :: acc
            | ev, (m, _) :: rest -> (m, Some ev) :: rest
            | _, [] -> Alcotest.failf "jobs=%d: an event before the first section" jobs)
          [] rc.r_events
        |> List.rev
      in
      if r.runs = [] then Alcotest.fail "no member ran";
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d: one section per member that ran" jobs)
        (List.map fst r.runs) (List.map fst sections);
      List.iter
        (function
          | _, Some (Telemetry.Recorder.Fin _) -> ()
          | m, _ -> Alcotest.failf "jobs=%d: member %s's section does not end in fin" jobs m)
        sections)
    [ 1; 2 ]

(* Members time their phases when the parent context does, and their
   self times are added into the parent's timer after the join: summed
   over members, so at most [jobs] times the run's wall time. *)
let member_phase_times () =
  match Test_benchmark_files.benchmarks_dir () with
  | None -> ()  (* tolerated when running from an install tree *)
  | Some dir ->
    let problem = Pbo.Opb.parse_file (Filename.concat dir "synth-s1.opb") in
    let tel = Telemetry.Ctx.create () in
    let jobs = 2 in
    let start = Unix.gettimeofday () in
    ignore (Portfolio.solve ~telemetry:tel ~jobs ~budget:20.0 problem : Portfolio.report);
    let elapsed = Unix.gettimeofday () -. start in
    let propagate = Telemetry.Timer.self_seconds tel.timer Telemetry.Phase.Propagate in
    let total = Telemetry.Timer.total_seconds tel.timer in
    if not (propagate > 0.) then Alcotest.failf "propagate self time %g" propagate;
    if total > float_of_int jobs *. elapsed then
      Alcotest.failf "phase total %.6f s exceeds %d x %.6f s" total jobs elapsed

let suite =
  [
    Alcotest.test_case "solves each family" `Slow solves_each_family;
    Alcotest.test_case "agrees with reference" `Slow agrees_with_reference;
    Alcotest.test_case "early stop" `Quick early_stop_on_proof;
    Alcotest.test_case "custom entries" `Quick custom_entries;
    Alcotest.test_case "better ranking" `Quick better_ranking;
    Alcotest.test_case "sequential redistribution" `Quick sequential_redistribution;
    QCheck_alcotest.to_alcotest ~long:true jobs_equivalence;
    Alcotest.test_case "oracle broadcast prunes" `Slow oracle_broadcast_prunes;
    Alcotest.test_case "imports counted where they happen" `Quick
      imports_counted_where_they_happen;
    Alcotest.test_case "bad import refused" `Slow bad_import_refused;
    Alcotest.test_case "caller cell holds the answer" `Quick caller_cell_holds_answer;
    Alcotest.test_case "crash isolation" `Slow crash_isolation;
    Alcotest.test_case "trace attributes members" `Quick trace_attributes_members;
    Alcotest.test_case "worker fair share" `Quick worker_fair_share;
    Alcotest.test_case "crash isolation (one job)" `Slow crash_isolation_one_job;
    Alcotest.test_case "member hooks (one job)" `Quick member_hooks_one_job;
    Alcotest.test_case "member table (two jobs)" `Quick member_table_two_jobs;
    Alcotest.test_case "member phase times" `Quick member_phase_times;
    Alcotest.test_case "each counter has one name" `Quick one_name_per_counter;
  ]
