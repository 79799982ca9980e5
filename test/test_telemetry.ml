(* Telemetry subsystem: timers, registry, JSON, trace sink, reports. *)

module T = Telemetry

let burn () =
  (* deterministic busy work so nested phases accumulate measurable time *)
  let acc = ref 0 in
  for i = 1 to 200_000 do
    acc := !acc + (i mod 7)
  done;
  Sys.opaque_identity !acc

let timer_nesting () =
  let t = T.Timer.create ~enabled:true () in
  let r =
    T.Timer.with_phase t T.Phase.Lower_bound (fun () ->
        ignore (burn ());
        let inner = T.Timer.with_phase t T.Phase.Simplex (fun () -> ignore (burn ()); 42) in
        ignore (burn ());
        inner)
  in
  Alcotest.(check int) "with_phase returns f's result" 42 r;
  let lb = T.Timer.self_seconds t T.Phase.Lower_bound in
  let sx = T.Timer.self_seconds t T.Phase.Simplex in
  Alcotest.(check bool) "outer self time positive" true (lb > 0.);
  Alcotest.(check bool) "inner self time positive" true (sx > 0.);
  let total = T.Timer.total_seconds t in
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. (T.Timer.snapshot t) in
  Alcotest.(check (float 1e-9)) "snapshot partitions total" total sum;
  Alcotest.(check (float 0.)) "unused phase is zero" 0. (T.Timer.self_seconds t T.Phase.Subgradient)

let timer_accumulates () =
  let t = T.Timer.create ~enabled:true () in
  T.Timer.with_phase t T.Phase.Propagate (fun () -> ignore (burn ()));
  let once = T.Timer.self_seconds t T.Phase.Propagate in
  T.Timer.with_phase t T.Phase.Propagate (fun () -> ignore (burn ()));
  let twice = T.Timer.self_seconds t T.Phase.Propagate in
  Alcotest.(check bool) "second call adds time" true (twice > once);
  T.Timer.reset t;
  Alcotest.(check (float 0.)) "reset clears" 0. (T.Timer.total_seconds t)

let timer_disabled () =
  let t = T.Timer.create () in
  let r = T.Timer.with_phase t T.Phase.Propagate (fun () -> ignore (burn ()); "ok") in
  Alcotest.(check string) "disabled timer still runs f" "ok" r;
  Alcotest.(check (float 0.)) "disabled timer accumulates nothing" 0. (T.Timer.total_seconds t)

let timer_exception_safe () =
  let t = T.Timer.create ~enabled:true () in
  (try T.Timer.with_phase t T.Phase.Analyze (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "time recorded despite raise" true
    (T.Timer.self_seconds t T.Phase.Analyze >= 0.);
  (* the phase stack must have been popped: a new phase gets its own time *)
  T.Timer.with_phase t T.Phase.Propagate (fun () -> ignore (burn ()));
  Alcotest.(check bool) "stack popped after raise" true
    (T.Timer.self_seconds t T.Phase.Propagate > 0.)

let registry_round_trip () =
  let reg = T.Registry.create () in
  let c = T.Registry.counter reg "engine.decisions" in
  T.Counter.incr c;
  T.Counter.add c 4;
  let c' = T.Registry.counter reg "engine.decisions" in
  Alcotest.(check bool) "find-or-create returns the same handle" true (c == c');
  Alcotest.(check (option int)) "find_counter reads the value" (Some 5)
    (T.Registry.find_counter reg "engine.decisions");
  Alcotest.(check (option int)) "missing counter is None" None
    (T.Registry.find_counter reg "engine.nope");
  let g = T.Registry.gauge reg "lgr.best_bound" in
  T.Gauge.set_max g 3.5;
  T.Gauge.set_max g 2.0;
  Alcotest.(check (option (float 0.))) "gauge keeps the max" (Some 3.5)
    (T.Registry.find_gauge reg "lgr.best_bound");
  ignore (T.Registry.counter reg "a.first");
  let names = List.map fst (T.Registry.counters reg) in
  Alcotest.(check (list string)) "snapshot is sorted by name"
    [ "a.first"; "engine.decisions" ] names

let histogram_buckets () =
  let h = T.Histogram.make "test" in
  List.iter (T.Histogram.observe h) [ 0; 1; 1; 2; 3; 8; 100 ];
  Alcotest.(check int) "total" 7 (T.Histogram.total h);
  Alcotest.(check int) "max" 100 (T.Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "mean" (115. /. 7.) (T.Histogram.mean h);
  let snap = T.Histogram.snapshot h in
  Alcotest.(check int) "bucket [1,1] holds both ones" 2
    (List.assoc_opt (1, 1) (List.map (fun (lo, hi, n) -> (lo, hi), n) snap)
    |> Option.value ~default:0);
  Alcotest.(check int) "bucket counts sum to total" 7
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 snap)

let json_round_trip () =
  let v =
    T.Json.Obj
      [
        "s", T.Json.String "a\"b\\c\n\t\xe2\x82\xac";
        "i", T.Json.Int (-42);
        "f", T.Json.Float 1.5;
        "b", T.Json.Bool true;
        "n", T.Json.Null;
        "l", T.Json.List [ T.Json.Int 1; T.Json.List []; T.Json.Obj [] ];
      ]
  in
  match T.Json.of_string (T.Json.to_string v) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v' -> Alcotest.(check bool) "round-trips structurally" true (v = v')

let json_parser_errors () =
  List.iter
    (fun s ->
      match T.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* Search events come from the flight recorder, so a disabled recorder
   is what a run without --record pays for them. *)
let trace_disabled_no_alloc () =
  let r = T.Recorder.disabled () in
  (* warm up so any one-off allocation is out of the measured window *)
  T.Recorder.decision r ~level:0 ~var:0 ~value:false;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    T.Recorder.decision r ~level:i ~var:i ~value:true;
    T.Recorder.lb_eval r ~proc:"lpr" ~value:i ~path:i ~upper:i ~elapsed_us:i ~pruned:false;
    T.Recorder.prune r ~blame:"lpr" ~lb:i ~path:i ~upper:i ~from_level:i ~to_level:0;
    T.Recorder.backjump r ~from_level:i ~to_level:0;
    T.Recorder.restart r;
    T.Recorder.incumbent r ~cost:i
  done;
  let delta = Gc.minor_words () -. before in
  (* allow only the measurement's own boxing, not per-event allocation *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled recorder allocates nothing observable (delta=%.0f)" delta)
    true (delta < 256.);
  Alcotest.(check int) "no events recorded" 0 (T.Recorder.events_written r)

let counters_of_registry () =
  let reg = T.Registry.create () in
  T.Counter.set (T.Registry.counter reg "engine.decisions") 7;
  T.Counter.set (T.Registry.counter reg "engine.conflicts") 3;
  T.Counter.set (T.Registry.counter reg "search.nodes") 9;
  let o =
    {
      Bsolo.Outcome.status = Bsolo.Outcome.Unknown;
      best = None;
      counters = T.Registry.counters reg;
      elapsed = 0.;
    }
  in
  Alcotest.(check int) "decisions" 7 (Bsolo.Outcome.counter o "engine.decisions");
  Alcotest.(check int) "conflicts" 3 (Bsolo.Outcome.counter o "engine.conflicts");
  Alcotest.(check int) "nodes" 9 (Bsolo.Outcome.counter o "search.nodes");
  Alcotest.(check int) "missing counters read as zero" 0
    (Bsolo.Outcome.counter o "engine.restarts")

let report_round_trip () =
  let problem = Gen.problem 3 in
  let tel = T.Ctx.create ~timing:true () in
  let options = { Bsolo.Options.default with telemetry = Some tel } in
  let outcome = Bsolo.Solver.solve ~options problem in
  let report =
    Bsolo.Report.make ~instance:"gen:3" ~engine:"bsolo" ~problem ~options ~telemetry:tel outcome
  in
  match T.Json.of_string (Bsolo.Report.to_string report) with
  | Error e -> Alcotest.failf "report does not parse back: %s" e
  | Ok json ->
    Alcotest.(check (option string)) "schema" (Some Bsolo.Report.schema)
      (Option.bind (T.Json.member "schema" json) T.Json.to_string_opt);
    (match Gen.report_counters json with
    | None -> Alcotest.fail "report lacks counters"
    | Some c ->
      Alcotest.(check bool) "report counters equal outcome counters" true
        (c = outcome.Bsolo.Outcome.counters));
    let phases = Bsolo.Report.phases_of_json json in
    let phase_sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. phases in
    Alcotest.(check bool) "phase times within elapsed" true
      (phase_sum <= outcome.Bsolo.Outcome.elapsed +. 0.05)

let suite =
  [
    Alcotest.test_case "timer nesting partitions time" `Quick timer_nesting;
    Alcotest.test_case "timer accumulates across calls" `Quick timer_accumulates;
    Alcotest.test_case "disabled timer is a no-op" `Quick timer_disabled;
    Alcotest.test_case "timer survives exceptions" `Quick timer_exception_safe;
    Alcotest.test_case "registry round-trip" `Quick registry_round_trip;
    Alcotest.test_case "histogram buckets" `Quick histogram_buckets;
    Alcotest.test_case "json round-trip" `Quick json_round_trip;
    Alcotest.test_case "json parser rejects malformed input" `Quick json_parser_errors;
    Alcotest.test_case "disabled trace allocates nothing" `Quick trace_disabled_no_alloc;
    Alcotest.test_case "counters snapshot from registry" `Quick counters_of_registry;
    Alcotest.test_case "run report round-trips" `Quick report_round_trip;
  ]
