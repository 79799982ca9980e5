(* Bechamel micro-benchmarks: the cost of one lower-bound evaluation per
   method, at a representative mid-search state.  This quantifies the
   paper's remark that LGR converges slowly and that bsolo's time per
   decision exceeds PBS's. *)

let mid_search_engine problem =
  let engine = Engine.Solver_core.create problem in
  ignore (Engine.Solver_core.propagate engine);
  (* take a few deterministic decisions to reach a typical interior node *)
  let rec dive n =
    if n > 0 then begin
      match Engine.Solver_core.next_branch_var engine with
      | None -> ()
      | Some v ->
        Engine.Solver_core.decide engine (Pbo.Lit.pos v);
        (match Engine.Solver_core.propagate engine with
        | None -> dive (n - 1)
        | Some _ -> ())
    end
  in
  dive 5;
  engine

let lb_tests () =
  let problem = Benchgen.Two_level.generate 7 in
  let engine = mid_search_engine problem in
  let cap = Pbo.Problem.max_cost_sum problem + 1 in
  let open Bechamel in
  [
    (* rows prepared once, as a search does *)
    (let mis = Lowerbound.Mis.create engine in
     Test.make ~name:"lb-mis" (Staged.stage (fun () -> ignore (Lowerbound.Mis.compute mis))));
    Test.make ~name:"lb-lgr"
      (Staged.stage (fun () -> ignore (Lowerbound.Lgr.compute engine ~cap)));
    (* a fresh LP context per run: one cold LP solve, as at the first
       evaluation of a search *)
    Test.make ~name:"lb-lpr"
      (Staged.stage (fun () ->
           ignore (Lowerbound.Lpr.compute_inc (Lowerbound.Lpr.make engine) ~cap)));
  ]

let propagation_tests () =
  let problem = Benchgen.Routing.generate 3 in
  let open Bechamel in
  [
    Test.make ~name:"engine-create+propagate"
      (Staged.stage (fun () ->
           let e = Engine.Solver_core.create problem in
           ignore (Engine.Solver_core.propagate e)));
  ]

let run () =
  let open Bechamel in
  let tests = lb_tests () @ propagation_tests () in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Printf.printf "Micro-benchmarks (ns per lower-bound evaluation):\n%!";
  List.iter
    (fun test ->
      let results = benchmark test in
      let a = analyze results in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        a)
    tests
