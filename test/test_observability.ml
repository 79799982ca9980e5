(* Observability subsystem: shared epoch, span sink, live cells,
   heartbeat snapshots, Prometheus rendering and the inspect-side
   validators.  Everything runs against temp files or in-memory values;
   only the span-timing test runs a (small) solve. *)

module T = Telemetry

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let tmp_file suffix =
  let path = Filename.temp_file "bsolo-obs" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* --- live cells ------------------------------------------------------------- *)

(* A context whose cell is observed: [Ctx.with_phase] publishes each
   phase on entry and restores the enclosing one on exit. *)
let observed_ctx () = T.Ctx.create ~cell:(T.Profile.Cell.make ~name:"w" ()) ()
let leaf tel = T.Profile.Cell.leaf tel.T.Ctx.cell
let phase_opt =
  Alcotest.testable
    (Fmt.of_to_string (function None -> "idle" | Some p -> T.Phase.name p))
    ( = )

let cell_publishes_innermost_phase () =
  let tel = observed_ctx () in
  Alcotest.check phase_opt "starts idle" None (leaf tel);
  T.Ctx.with_phase tel T.Phase.Lower_bound (fun () ->
      Alcotest.check phase_opt "outer published" (Some T.Phase.Lower_bound) (leaf tel);
      T.Ctx.with_phase tel T.Phase.Simplex (fun () ->
          Alcotest.check phase_opt "inner published" (Some T.Phase.Simplex) (leaf tel));
      Alcotest.check phase_opt "outer after inner exit" (Some T.Phase.Lower_bound) (leaf tel);
      (match T.Ctx.with_phase tel T.Phase.Simplex (fun () -> failwith "inner") with
      | () -> Alcotest.fail "the inner body raises"
      | exception Failure _ -> ());
      Alcotest.check phase_opt "outer after inner raise" (Some T.Phase.Lower_bound) (leaf tel));
  Alcotest.check phase_opt "idle after outer exit" None (leaf tel)

let cell_deep_nesting_balanced () =
  let tel = observed_ctx () in
  let phase d = if d mod 2 = 0 then T.Phase.Lower_bound else T.Phase.Simplex in
  let rec nest d =
    if d < 20 then
      T.Ctx.with_phase tel (phase d) (fun () ->
          Alcotest.check phase_opt "entered" (Some (phase d)) (leaf tel);
          nest (d + 1);
          Alcotest.check phase_opt "restored" (Some (phase d)) (leaf tel))
  in
  nest 0;
  Alcotest.check phase_opt "20 deep stays balanced" None (leaf tel)

let cell_bounds_monotone () =
  let c = T.Profile.Cell.make ~name:"w" () in
  Alcotest.(check bool) "lb starts -inf" true (T.Profile.Cell.lb c = neg_infinity);
  Alcotest.(check bool) "ub starts +inf" true (T.Profile.Cell.ub c = infinity);
  T.Profile.Cell.update_lb c 5.;
  T.Profile.Cell.update_lb c 3.;
  Alcotest.(check (float 0.)) "lb keeps the max" 5. (T.Profile.Cell.lb c);
  T.Profile.Cell.update_ub c 10.;
  T.Profile.Cell.update_ub c ~self:false 20.;
  Alcotest.(check (float 0.)) "ub keeps the min" 10. (T.Profile.Cell.ub c);
  Alcotest.(check bool) "losing import does not flip provenance" true (T.Profile.Cell.ub_self c);
  T.Profile.Cell.update_ub c ~self:false 4.;
  Alcotest.(check (float 0.)) "better import taken" 4. (T.Profile.Cell.ub c);
  Alcotest.(check bool) "provenance now imported" false (T.Profile.Cell.ub_self c);
  T.Profile.Cell.bump_nodes c;
  T.Profile.Cell.bump_nodes c;
  Alcotest.(check int) "node counter" 2 (T.Profile.Cell.nodes c)

let cell_unobserved_is_silent () =
  let c = T.Profile.Cell.make ~observed:false ~name:"w" () in
  T.Profile.Cell.publish c (Some T.Phase.Simplex);
  Alcotest.(check bool) "unobserved cell publishes nothing" true (T.Profile.Cell.leaf c = None)

(* --- span sink + shared epoch ---------------------------------------------- *)

let validated path =
  match Inspect.load_spans path with
  | Error msg -> Alcotest.fail msg
  | Ok events -> (
    match Inspect.validate_spans events with
    | Error violations -> Alcotest.failf "unexpected violations: %s" (String.concat "; " violations)
    | Ok stats -> events, stats)

let str_member k e = Option.bind (Inspect.Json.member k e) Inspect.Json.to_string_opt
let num_member k e = Option.bind (Inspect.Json.member k e) Inspect.Json.to_float

(* The X events of a span file named [name]: their ts and dur in µs. *)
let x_events ?name events =
  List.filter_map
    (fun e ->
      match str_member "ph" e, num_member "ts" e, num_member "dur" e with
      | Some "X", Some ts, Some dur when name = None || str_member "name" e = name -> Some (ts, dur)
      | _ -> None)
    events

let spans_well_nested_file () =
  let path = tmp_file ".spans.json" in
  let sink = T.Span.open_file path in
  T.Span.header sink ~run_id:"cafebabe" ~started:1000.;
  let cell = T.Profile.Cell.make ~name:"main" () in
  T.Span.name_track sink ~track:(T.Profile.Cell.track cell) "main";
  (* The timer writes the phase spans: a coarse phase inside another,
     one left by an exception, and a hot phase that gets none. *)
  let tel = T.Ctx.create ~timing:false ~spans:sink ~cell () in
  let ok =
    T.Ctx.with_phase tel T.Phase.Lower_bound (fun () ->
        (try T.Ctx.with_phase tel T.Phase.Simplex (fun () -> failwith "inner")
         with Failure _ -> ());
        T.Ctx.with_phase tel T.Phase.Propagate (fun () ->
            T.Ctx.with_phase tel T.Phase.Simplex (fun () -> true)))
  in
  Alcotest.(check bool) "with_phase returns f's result" true ok;
  let t = Unix.gettimeofday () in
  (* Track ids come from a process-wide counter, so a fixed id could be
     the cell's own: take one past it. *)
  T.Span.complete sink ~track:(T.Profile.Cell.track cell + 1) ~name:"other-track" ~start:t
    ~stop:(t +. 0.001);
  T.Span.close sink;
  let events, stats = validated path in
  Alcotest.(check (option string)) "run id survives" (Some "cafebabe") stats.sp_run_id;
  Alcotest.(check int) "a span per coarse phase entry" 4 (List.length (x_events events));
  Alcotest.(check int) "no span for the hot phase" 0
    (List.length (x_events ~name:"propagate" events));
  Alcotest.(check bool) "nesting depth seen" true (stats.sp_max_depth >= 2);
  Alcotest.(check int) "both tracks seen" 2 stats.sp_tracks;
  List.iter
    (fun e ->
      Alcotest.(check bool) "only M and X events" true
        (List.mem (str_member "ph" e) [ Some "M"; Some "X" ]);
      Alcotest.(check bool) "no span ids or parents" true
        (Option.bind (Inspect.Json.member "args" e) (Inspect.Json.member "id") = None))
    events

let spans_share_one_epoch () =
  (* Two sinks opened at different times must stamp on the same clock: a
     span emitted on the later sink carries the full offset since the
     process epoch, not a per-sink zero.  This is the cross-domain
     trace-skew regression test. *)
  let before = T.Epoch.now () in
  Unix.sleepf 0.02;
  let path = tmp_file ".spans.json" in
  let sink = T.Span.open_file path in
  T.Span.header sink ~run_id:"r2" ~started:(T.Epoch.t0 ());
  let t = Unix.gettimeofday () in
  T.Span.complete sink ~track:1 ~name:"late" ~start:t ~stop:t;
  T.Span.close sink;
  let events, _ = validated path in
  match x_events events with
  | [ (ts, _) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "late sink keeps epoch offset (ts=%.0fus, floor=%.0fus)" ts (before *. 1e6))
      true
      (ts >= (before +. 0.02) *. 1e6 -. 1000.)
  | l -> Alcotest.failf "expected 1 X event, got %d" (List.length l)

let spans_validator_rejects_bad () =
  let open T.Json in
  let ev ?(tid = 1) ph name ts dur =
    Obj
      [
        "ph", String ph;
        "name", String name;
        "pid", Int 1;
        "tid", Int tid;
        "ts", Float ts;
        "dur", Float dur;
      ]
  in
  let header schema =
    Obj
      [
        "ph", String "M";
        "name", String "bsolo_run";
        "pid", Int 1;
        "tid", Int 0;
        "args", Obj [ "schema", String schema; "run_id", String "x"; "epoch", Float 0. ];
      ]
  in
  let h = header "bsolo-spans/2" in
  let accepts what evs =
    match Inspect.validate_spans evs with
    | Ok _ -> ()
    | Error v -> Alcotest.failf "%s rejected: %s" what (String.concat "; " v)
  in
  let rejects what evs =
    match Inspect.validate_spans evs with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  accepts "nested and disjoint spans"
    [ h; ev "X" "inner" 20. 10.; ev "X" "outer" 10. 50.; ev "X" "next" 60. 5. ];
  accepts "a child poking out by rounding" [ h; ev "X" "outer" 10. 50.; ev "X" "inner" 40. 20.5 ];
  accepts "overlap across tracks" [ h; ev "X" "a" 10. 50.; ev ~tid:2 "X" "b" 40. 50. ];
  rejects "partial overlap on one track" [ h; ev "X" "a" 10. 50.; ev "X" "b" 40. 50. ];
  rejects "B/E events" [ h; ev "B" "a" 10. 0.; ev "E" "a" 20. 0. ];
  rejects "a missing header" [ ev "X" "a" 10. 50. ];
  rejects "a duplicated header" [ h; h ];
  rejects "schema bsolo-spans/1" [ header "bsolo-spans/1" ]

let spans_cap_drops_whole_events () =
  let path = tmp_file ".spans.json" in
  (* Room for the two header records, the track name and two spans. *)
  let sink = T.Span.open_file ~max_events:5 path in
  T.Span.header sink ~run_id:"capped" ~started:1000.;
  T.Span.name_track sink ~track:1 "main";
  let t = Unix.gettimeofday () in
  for i = 0 to 9 do
    let start = t +. (0.001 *. float_of_int i) in
    T.Span.complete sink ~track:1 ~name:"step" ~start ~stop:(start +. 0.0005)
  done;
  T.Span.close sink;
  let events, stats = validated path in
  Alcotest.(check int) "spans written up to the cap" 2 (List.length (x_events events));
  Alcotest.(check int) "the rest counted as dropped" 8 stats.sp_dropped;
  Alcotest.(check bool) "the summary warns" true
    (List.exists (fun l -> contains l "8 span(s) dropped") (Inspect.render_span_stats stats))

let spans_are_the_timer_readings () =
  let path = tmp_file ".spans.json" in
  let sink = T.Span.open_file path in
  T.Span.header sink ~run_id:"lpr" ~started:(Unix.gettimeofday ());
  let cell = T.Profile.Cell.make ~observed:false ~name:"bsolo" () in
  let tel = T.Ctx.create ~spans:sink ~cell () in
  let problem =
    Benchgen.Knapsack.generate
      ~params:{ Benchgen.Knapsack.default with items = 14; rows = 6 }
      5
  in
  let options = { (Bsolo.Options.with_lb Bsolo.Options.Lpr) with telemetry = Some tel } in
  ignore (Bsolo.Solver.solve ~options problem);
  T.Ctx.close tel;
  let events, _ = validated path in
  let simplex = x_events ~name:"simplex" events in
  let n = List.length simplex in
  Alcotest.(check bool) "the solve ran simplex" true (n > 0);
  let summed = List.fold_left (fun acc (_, dur) -> acc +. dur) 0. simplex in
  let self = T.Timer.self_seconds tel.timer T.Phase.Simplex *. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "simplex spans sum to its self time (%.1f vs %.1f us, %d spans)" summed self n)
    true
    (Float.abs (summed -. self) <= float_of_int n)

(* --- heartbeat snapshots ---------------------------------------------------- *)

let snap_fixture () =
  T.Snapshot.
    {
      s_t = 1.25;
      s_seq = 3;
      s_members =
        [
          {
            m_name = "bsolo-lpr";
            m_phase = "simplex";
            m_lb = 10.;
            m_ub = 42.;
            m_nodes = 1234;
            m_node_rate = 987.5;
            m_ub_self = true;
          };
          {
            m_name = "bsolo-mis";
            m_phase = "idle";
            m_lb = neg_infinity;
            m_ub = infinity;
            m_nodes = 0;
            m_node_rate = 0.;
            m_ub_self = false;
          };
        ];
      s_deltas = [ "engine.conflicts", 17; "search.nodes", 400 ];
      s_best = Some (42., "bsolo-lpr");
    }

let snapshot_encode_decode_round_trip () =
  let s = snap_fixture () in
  match T.Snapshot.decode (T.Snapshot.encode s) with
  | None -> Alcotest.fail "decode rejected its own encode"
  | Some s' ->
    Alcotest.(check (float 0.)) "t" s.s_t s'.s_t;
    Alcotest.(check int) "seq" s.s_seq s'.s_seq;
    Alcotest.(check int) "member count" 2 (List.length s'.s_members);
    let m = List.hd s'.s_members and m0 = List.hd s.s_members in
    Alcotest.(check string) "name" m0.m_name m.m_name;
    Alcotest.(check string) "phase" m0.m_phase m.m_phase;
    Alcotest.(check (float 0.)) "lb" m0.m_lb m.m_lb;
    Alcotest.(check (float 0.)) "ub" m0.m_ub m.m_ub;
    Alcotest.(check int) "nodes" m0.m_nodes m.m_nodes;
    Alcotest.(check (float 0.)) "rate" m0.m_node_rate m.m_node_rate;
    Alcotest.(check bool) "ub_self" m0.m_ub_self m.m_ub_self;
    let idle = List.nth s'.s_members 1 in
    Alcotest.(check bool) "absent lb decodes -inf" true (idle.m_lb = neg_infinity);
    Alcotest.(check bool) "absent ub decodes +inf" true (idle.m_ub = infinity);
    Alcotest.(check bool) "deltas survive" true (s'.s_deltas = s.s_deltas);
    (match s'.s_best with
    | Some (c, who) ->
      Alcotest.(check (float 0.)) "best cost" 42. c;
      Alcotest.(check string) "best provenance" "bsolo-lpr" who
    | None -> Alcotest.fail "best lost")

let snapshot_non_snapshot_lines () =
  let open T.Json in
  Alcotest.(check bool) "header is not a snapshot" true
    (T.Snapshot.decode (Obj [ "schema", String "bsolo-heartbeat/1" ]) = None);
  Alcotest.(check bool) "end record is not a snapshot" true
    (T.Snapshot.decode (Obj [ "end", Bool true; "t", Float 1. ]) = None)

let heartbeat_file_round_trip () =
  let path = tmp_file ".hb.jsonl" in
  let w = T.Snapshot.open_file path ~run_id:"deadbeef" ~started:1234.5 ~every:0.5 in
  let s = snap_fixture () in
  T.Snapshot.write w s;
  T.Snapshot.write w { s with s_t = 2.5; s_seq = s.s_seq + 1 };
  T.Snapshot.close w;
  T.Snapshot.close w (* idempotent *);
  match Inspect.load_trace path with
  | Error msg -> Alcotest.fail msg
  | Ok (lines, skipped) ->
    Alcotest.(check int) "no torn lines" 0 skipped;
    (match lines with
    | header :: _ ->
      Alcotest.(check (option string)) "header schema" (Some "bsolo-heartbeat/1")
        (Inspect.schema_of header)
    | [] -> Alcotest.fail "empty heartbeat file");
    (match Inspect.heartbeat_check lines with
    | Ok _ -> ()
    | Error violations -> Alcotest.failf "violations: %s" (String.concat "; " violations))

(* The SIGUSR1 path: Monitor.request must force an out-of-band snapshot
   at the next ~50 ms quantum — long before the periodic [every]
   elapses — numbered in sequence with the start and final snapshots. *)
let monitor_request_forces_snapshot () =
  let path = tmp_file ".hb.jsonl" in
  let heartbeat =
    T.Snapshot.open_file path ~run_id:"deadbeef" ~started:(Unix.gettimeofday ()) ~every:60.
  in
  let render = { Obsd.Monitor.metrics = (fun () -> ""); status = (fun _ _ -> "{}") } in
  let m = Obsd.Monitor.start ~heartbeat ~render ~every:60. () in
  Obsd.Monitor.request m;
  Unix.sleepf 0.3 (* several polling quanta, still way under [every] *);
  Obsd.Monitor.stop m;
  match Inspect.load_trace path with
  | Error msg -> Alcotest.fail msg
  | Ok (lines, _) ->
    let snaps = List.filter_map T.Snapshot.decode lines in
    (* start + requested + final stop snapshot: a 60 s periodic tick
       cannot have fired inside a sub-second test, so the middle one can
       only come from the request. *)
    Alcotest.(check (list int)) "seq of the start, requested and final snapshots" [ 0; 1; 2 ]
      (List.map (fun (s : T.Snapshot.snap) -> s.s_seq) snaps)

(* The first advancing take has no previous observation: its node rates
   must be 0, not nodes-so-far divided by the near-zero interval since
   the collector was created. *)
let collector_first_tick_rate_zero () =
  let c = T.Profile.Cell.make ~observed:true ~name:"rate-first-tick" () in
  T.Profile.register c (T.Registry.create ());
  Fun.protect ~finally:(fun () -> T.Profile.unregister c) @@ fun () ->
  for _ = 1 to 1000 do
    T.Profile.Cell.bump_nodes c
  done;
  let coll = T.Snapshot.collector () in
  Unix.sleepf 0.01;
  let s = T.Snapshot.take coll in
  match
    List.find_opt (fun (m : T.Snapshot.member) -> m.m_name = "rate-first-tick") s.s_members
  with
  | None -> Alcotest.fail "cell not seen by the collector"
  | Some m -> Alcotest.(check (float 0.)) "first-tick rate is 0" 0. m.m_node_rate

(* A forced (SIGUSR1) snapshot peeks: it must not advance the collector,
   so the next periodic take's counter deltas still cover the whole
   interval since the previous periodic take rather than only the part
   after the forced snapshot. *)
let peek_preserves_periodic_deltas () =
  let reg = T.Registry.create () in
  let cnt = T.Registry.counter reg "x.events" in
  let coll = T.Snapshot.collector ~registry:reg () in
  ignore (T.Snapshot.take coll) (* prime: the first periodic tick *);
  T.Counter.add cnt 5;
  let forced = T.Snapshot.peek coll in
  Alcotest.(check bool) "forced snapshot sees the deltas so far" true
    (List.assoc_opt "x.events" forced.s_deltas = Some 5);
  T.Counter.add cnt 3;
  let periodic = T.Snapshot.take coll in
  Alcotest.(check bool) "periodic deltas cover the whole interval" true
    (List.assoc_opt "x.events" periodic.s_deltas = Some 8);
  let next = T.Snapshot.take coll in
  Alcotest.(check bool) "nothing new after the advancing take" true
    (List.assoc_opt "x.events" next.s_deltas = None)

let heartbeat_check_catches_widening () =
  let s = snap_fixture () in
  let widened =
    {
      s with
      s_t = 2.0;
      s_seq = 4;
      s_members =
        List.map
          (fun (m : T.Snapshot.member) ->
            if m.m_name = "bsolo-lpr" then { m with m_lb = 5. } else m)
          s.s_members;
    }
  in
  let open T.Json in
  let header = Obj [ "schema", String "bsolo-heartbeat/1" ] in
  let end_rec = Obj [ "end", Bool true ] in
  let lines = [ header; T.Snapshot.encode s; T.Snapshot.encode widened; end_rec ] in
  match Inspect.heartbeat_check lines with
  | Ok _ -> Alcotest.fail "widening gap accepted"
  | Error violations ->
    Alcotest.(check bool) "names the widening member" true
      (List.exists (fun v -> contains v "bsolo-lpr") violations)

(* --- Prometheus text -------------------------------------------------------- *)

let promtext_render () =
  let reg = T.Registry.create () in
  let c = T.Registry.counter reg "engine.decisions" in
  T.Counter.add c 5;
  let g = T.Registry.gauge reg "lp.objective" in
  T.Gauge.set g 3.5;
  let h = T.Registry.histogram reg "lb.mis.value" in
  T.Histogram.observe h 1;
  T.Histogram.observe h 3;
  T.Histogram.observe h 100;
  let text = T.Promtext.render reg in
  let has s = contains text s in
  Alcotest.(check bool) "counter TYPE line" true (has "# TYPE bsolo_engine_decisions counter");
  Alcotest.(check bool) "counter value" true (has "bsolo_engine_decisions 5");
  Alcotest.(check bool) "gauge value" true (has "bsolo_lp_objective 3.5");
  Alcotest.(check bool) "histogram TYPE line" true (has "# TYPE bsolo_lb_mis_value histogram");
  Alcotest.(check bool) "+Inf bucket carries the total" true
    (has "bsolo_lb_mis_value_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "histogram count" true (has "bsolo_lb_mis_value_count 3")

let promtext_sanitize () =
  Alcotest.(check string) "dots and dashes become underscores" "lb_mis_tightness_pm"
    (T.Promtext.sanitize "lb.mis.tightness-pm")

let promtext_write_file_atomic () =
  let path = tmp_file ".prom" in
  let reg = T.Registry.create () in
  T.Counter.incr (T.Registry.counter reg "search.nodes");
  T.Promtext.write_file path (T.Promtext.render reg);
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check bool) "file starts with a comment header" true
    (String.length first > 0 && first.[0] = '#')

(* --- suite ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "cell: with_phase publishes leaf" `Quick cell_publishes_innermost_phase;
    Alcotest.test_case "cell: deep nesting balanced" `Quick cell_deep_nesting_balanced;
    Alcotest.test_case "cell: bounds monotone" `Quick cell_bounds_monotone;
    Alcotest.test_case "cell: unobserved silent" `Quick cell_unobserved_is_silent;
    Alcotest.test_case "spans: well-nested file validates" `Quick spans_well_nested_file;
    Alcotest.test_case "spans: one shared epoch (skew)" `Quick spans_share_one_epoch;
    Alcotest.test_case "spans: validator rejects bad streams" `Quick spans_validator_rejects_bad;
    Alcotest.test_case "spans: cap drops whole X events" `Quick spans_cap_drops_whole_events;
    Alcotest.test_case "spans: durations are the timer's readings" `Quick
      spans_are_the_timer_readings;
    Alcotest.test_case "heartbeat: encode/decode round trip" `Quick snapshot_encode_decode_round_trip;
    Alcotest.test_case "heartbeat: non-snapshot lines" `Quick snapshot_non_snapshot_lines;
    Alcotest.test_case "heartbeat: file round trip + check" `Quick heartbeat_file_round_trip;
    Alcotest.test_case "heartbeat: SIGUSR1 request forces snapshot" `Quick
      monitor_request_forces_snapshot;
    Alcotest.test_case "heartbeat: first-tick node rate is zero" `Quick
      collector_first_tick_rate_zero;
    Alcotest.test_case "heartbeat: forced peek keeps periodic deltas whole" `Quick
      peek_preserves_periodic_deltas;
    Alcotest.test_case "heartbeat: check catches widening gap" `Quick heartbeat_check_catches_widening;
    Alcotest.test_case "promtext: render" `Quick promtext_render;
    Alcotest.test_case "promtext: sanitize" `Quick promtext_sanitize;
    Alcotest.test_case "promtext: write_file" `Quick promtext_write_file_atomic;
  ]
