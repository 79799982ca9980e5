(* Search-analytics layer: bound-quality tracking attribution,
   per-procedure effectiveness, the incumbent timeline, report diffs and
   the recording summary. *)

module Json = Telemetry.Json

let check_float = Alcotest.check (Alcotest.float 1e-9)

(* --- Lowerbound.Track ------------------------------------------------------ *)

let test_tightness_pm () =
  Alcotest.(check int) "half" 500 (Lowerbound.Track.tightness_pm ~value:5 ~need:10);
  Alcotest.(check int) "full" 1000 (Lowerbound.Track.tightness_pm ~value:10 ~need:10);
  Alcotest.(check int) "clamped high" 1000 (Lowerbound.Track.tightness_pm ~value:25 ~need:10);
  Alcotest.(check int) "clamped low" 0 (Lowerbound.Track.tightness_pm ~value:(-3) ~need:10);
  Alcotest.(check int) "closed gap" 1000 (Lowerbound.Track.tightness_pm ~value:0 ~need:0)

let test_track_attribution () =
  let tel = Telemetry.Ctx.create () in
  let reg = tel.Telemetry.Ctx.registry in
  let tr = Lowerbound.Track.create tel ~proc:"lpr" in
  Lowerbound.Track.note_call tr ~value:6 ~path:2 ~upper:10;
  Lowerbound.Track.note_call tr ~value:8 ~path:2 ~upper:10;
  (* Two LB-driven bound conflicts and one path-cost-only one. *)
  Lowerbound.Track.note_bound_conflict tr ~lb_driven:true ~from_level:10 ~to_level:4 ~lb:8
    ~path:2 ~upper:10;
  Lowerbound.Track.note_bound_conflict tr ~lb_driven:true ~from_level:7 ~to_level:5 ~lb:8
    ~path:2 ~upper:10;
  Lowerbound.Track.note_bound_conflict tr ~lb_driven:false ~from_level:3 ~to_level:2 ~lb:10
    ~path:10 ~upper:10;
  let counter name = Option.value ~default:0 (Telemetry.Registry.find_counter reg name) in
  Alcotest.(check int) "lpr conflicts" 2 (counter "lb.lpr.bound_conflicts");
  Alcotest.(check int) "path conflicts" 1 (counter "lb.path.bound_conflicts");
  let tightness = Telemetry.Registry.histogram reg "lb.lpr.tightness_pm" in
  Alcotest.(check int) "calls recorded" 2 (Telemetry.Histogram.total tightness);
  (* value=6 over need=8 is 750 pm; value=8 closes the gap. *)
  check_float "mean tightness" 875. (Telemetry.Histogram.mean tightness);
  let backjump = Telemetry.Registry.histogram reg "lb.lpr.bc_backjump" in
  Alcotest.(check int) "lpr backjumps" 2 (Telemetry.Histogram.total backjump);
  check_float "mean backjump" 4. (Telemetry.Histogram.mean backjump)

(* --- effectiveness --------------------------------------------------------- *)

let synthetic_report =
  Json.Obj
    [
      "schema", Json.String "bsolo-run-report/1";
      "elapsed", Json.Float 2.0;
      ( "phases",
        Json.Obj [ "lower_bound", Json.Float 0.3; "simplex", Json.Float 0.5 ] );
      ( "counters",
        Json.Obj
          [
            "lb.lpr.bound_conflicts", Json.Int 10;
            "lb.path.bound_conflicts", Json.Int 2;
            "engine.conflicts", Json.Int 40;
          ] );
      ( "histograms",
        Json.Obj
          [
            ( "lb.lpr.tightness_pm",
              Json.Obj [ "total", Json.Int 20; "mean", Json.Float 800.; "max", Json.Int 1000 ]
            );
            ( "lb.lpr.bc_backjump",
              Json.Obj [ "total", Json.Int 10; "mean", Json.Float 3.; "max", Json.Int 7 ] );
            ( "lb.path.bc_backjump",
              Json.Obj [ "total", Json.Int 2; "mean", Json.Float 1.; "max", Json.Int 1 ] );
          ] );
    ]

let test_effectiveness () =
  let rows = Inspect.effectiveness synthetic_report in
  Alcotest.(check int) "two procs" 2 (List.length rows);
  let lpr = List.find (fun (r : Inspect.proc_row) -> r.proc = "lpr") rows in
  let path = List.find (fun (r : Inspect.proc_row) -> r.proc = "path") rows in
  Alcotest.(check int) "lpr calls from tightness total" 20 lpr.calls;
  check_float "lpr seconds = lower_bound + simplex" 0.8 lpr.time_s;
  check_float "lpr time share" 0.4 lpr.time_share;
  check_float "lpr tightness" 800. lpr.mean_tightness_pm;
  Alcotest.(check int) "lpr conflicts" 10 lpr.bound_conflicts;
  check_float "lpr mean backjump" 3. lpr.mean_backjump;
  Alcotest.(check int) "lpr pruning credit" 30 lpr.pruning_credit;
  Alcotest.(check int) "path conflicts" 2 path.bound_conflicts;
  Alcotest.(check int) "path pruning credit" 2 path.pruning_credit

(* --- incumbent timeline ----------------------------------------------------- *)

(* The timeline is the report's incumbent trajectory: strictly falling
   costs ending at the run's answer, thinned to about [max_lines] rows
   with the last one kept. *)
let test_incumbent_timeline () =
  match Test_benchmark_files.benchmarks_dir () with
  | None -> ()  (* tolerated when running from an install tree *)
  | Some dir ->
    let problem = Pbo.Opb.parse_file (Filename.concat dir "synth-s1.opb") in
    let tel = Telemetry.Ctx.create () in
    let incumbents = ref [] in
    let options =
      {
        Bsolo.Options.default with
        telemetry = Some tel;
        on_incumbent =
          Some (fun _ cost -> incumbents := { Bsolo.Report.at = 0.; cost } :: !incumbents);
      }
    in
    let outcome = Bsolo.Solver.solve ~options problem in
    let report =
      Bsolo.Report.make ~incumbents:(List.rev !incumbents) ~telemetry:tel outcome
    in
    let json =
      match Json.of_string (Bsolo.Report.to_string report) with
      | Ok j -> j
      | Error e -> Alcotest.failf "report does not parse: %s" e
    in
    let costs = List.map snd (Inspect.incumbent_points json) in
    Alcotest.(check bool) "several incumbents" true (List.length costs > 4);
    let rec falling = function
      | a :: (b :: _ as rest) -> a > b && falling rest
      | [ _ ] | [] -> true
    in
    Alcotest.(check bool) "costs strictly fall" true (falling costs);
    Alcotest.(check (option int)) "ends at the answer" (Bsolo.Outcome.best_cost outcome)
      (Some (List.nth costs (List.length costs - 1)));
    let lines = Inspect.render_timeline ~max_lines:4 (Inspect.incumbent_points json) in
    Alcotest.(check bool) "thinned" true (List.length lines <= 1 + 4 + 1);
    let last = List.nth lines (List.length lines - 1) in
    Alcotest.(check bool) "last row is the answer" true
      (String.ends_with
         ~suffix:(string_of_int (Option.get (Bsolo.Outcome.best_cost outcome)))
         last);
    Alcotest.(check (list string)) "empty trajectory" [ "no incumbents recorded" ]
      (Inspect.render_timeline [])

(* --- report diff ----------------------------------------------------------- *)

let report ~elapsed ~conflicts ~lb_time =
  Json.Obj
    [
      "schema", Json.String "bsolo-run-report/1";
      "elapsed", Json.Float elapsed;
      "phases", Json.Obj [ "lower_bound", Json.Float lb_time ];
      "counters", Json.Obj [ "engine.conflicts", Json.Int conflicts ];
    ]

let test_diff_flags_slowdown () =
  let base = report ~elapsed:1.0 ~conflicts:1000 ~lb_time:0.4 in
  let cand = report ~elapsed:2.0 ~conflicts:3000 ~lb_time:1.1 in
  let entries = Inspect.diff ~threshold:0.25 base cand in
  Alcotest.(check bool) "has regression" true (Inspect.has_regression entries);
  let by_key k = List.find (fun (e : Inspect.diff_entry) -> e.key = k) entries in
  Alcotest.(check bool) "elapsed 2x flagged" true (by_key "elapsed").regression;
  Alcotest.(check bool) "conflicts 3x flagged" true
    (by_key "counters.engine.conflicts").regression;
  Alcotest.(check bool) "phase flagged" true (by_key "phases.lower_bound").regression

let test_diff_below_threshold () =
  let base = report ~elapsed:1.0 ~conflicts:1000 ~lb_time:0.4 in
  let cand = report ~elapsed:1.1 ~conflicts:1040 ~lb_time:0.45 in
  let entries = Inspect.diff ~threshold:0.25 base cand in
  Alcotest.(check bool) "no regression" false (Inspect.has_regression entries)

let test_diff_noise_floor () =
  (* Huge ratios on tiny absolute values stay below the noise floors. *)
  let base = report ~elapsed:0.002 ~conflicts:3 ~lb_time:0.001 in
  let cand = report ~elapsed:0.01 ~conflicts:30 ~lb_time:0.004 in
  let entries = Inspect.diff ~threshold:0.25 base cand in
  Alcotest.(check bool) "noise not flagged" false (Inspect.has_regression entries)

(* --- trace summary ------------------------------------------------------------ *)

let test_trace_summary () =
  let module R = Telemetry.Recorder in
  let recording ?(truncated = false) events =
    {
      R.r_header =
        {
          R.h_run_id = "cafe0123";
          h_engine = "portfolio";
          h_lb_method = "";
          h_started = 0.;
          h_nvars = 3;
          h_nconstraints = 2;
          h_flags = 0;
          h_lgr_iters = 0;
        };
      r_events = events;
      r_truncated = truncated;
    }
  in
  let decision level = R.Decision { level; var = level; value = true } in
  let rc =
    recording ~truncated:true
      [
        10_000, decision 1;
        20_000, R.Incumbent { cost = 42 };
        30_000, decision 2;
        40_000, R.Prune { blame = "lpr"; lb = 3; path = 0; upper = 42; from_level = 2; to_level = 1 };
        50_000, R.Section "bsolo-mis";
        1_250_000, R.Incumbent { cost = 40 };
      ]
  in
  Alcotest.(check (list string)) "summary"
    [
      "6 events over 1.250s (torn last line dropped)";
      "  decision         2";
      "  incumbent        2";
      "  prune            1";
      "  section          1";
      "incumbent trajectory:";
      "       0.020s  cost 42";
      "       1.250s  cost 40";
    ]
    (Inspect.trace_summary rc);
  Alcotest.(check (list string)) "empty recording" [ "0 events over 0.000s" ]
    (Inspect.trace_summary (recording []))

(* --- propagation core -------------------------------------------------------- *)

(* A report of a build that still had a --bcp option: it names the
   mode in its options and counts the counting-mode population.  Both
   are ignored; the rest renders. *)
let older_report =
  {|{"schema":"bsolo-run-report/1","options":{"lb_method":"LPR","bcp":"hybrid","cuts":"tree"},
     "counters":{"bcp.propagations":1289,"bcp.visits":5021,"bcp.watch_moves":811,
                 "bcp.watch_extends":97,"bcp.constrs_watched":40,"bcp.constrs_watch_all":3,
                 "bcp.constrs_counting":12}}|}

let test_bcp_older_report () =
  let json =
    match Json.of_string older_report with
    | Ok j -> j
    | Error e -> Alcotest.failf "fixture does not parse: %s" e
  in
  Alcotest.(check (list string)) "counters rendered, mode and counting dropped"
    [
      "implied assignments    1289";
      "constraint visits      5021";
      "watch updates          811 moves, 97 extends";
      "watched constraints    40 (3 watch-all)";
    ]
    (Inspect.render_bcp json)

let suite =
  [
    Alcotest.test_case "tightness per-mille" `Quick test_tightness_pm;
    Alcotest.test_case "track attribution" `Quick test_track_attribution;
    Alcotest.test_case "effectiveness table" `Quick test_effectiveness;
    Alcotest.test_case "incumbent timeline" `Quick test_incumbent_timeline;
    Alcotest.test_case "diff flags 2x slowdown" `Quick test_diff_flags_slowdown;
    Alcotest.test_case "diff below threshold" `Quick test_diff_below_threshold;
    Alcotest.test_case "diff noise floor" `Quick test_diff_noise_floor;
    Alcotest.test_case "trace summary" `Quick test_trace_summary;
    Alcotest.test_case "propagation core of an older report" `Quick test_bcp_older_report;
  ]
