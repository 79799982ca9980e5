(* Flight recorder: JSONL codec round trip, ring wraparound, torn-tail
   recovery, foreign-file rejection, portfolio stitching, forensics accounting and deterministic
   replay — everything against temp files, with the solver runs on the
   small generated instances. *)

module R = Telemetry.Recorder

let tmp suffix =
  let path = Filename.temp_file "bsolo-recording" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let header ?(engine = "bsolo") ?(lb = "lpr") ?(flags = 0) ?(nvars = 5) () =
  {
    R.h_run_id = "cafe0123";
    h_engine = engine;
    h_lb_method = lb;
    h_started = 1760875543.1234567;
    h_nvars = nvars;
    h_nconstraints = 7;
    h_flags = flags;
    h_lgr_iters = 50;
  }

(* Every constructor, with negative bounds and costs and a member name
   that needs escaping. *)
let all_events =
  [
    R.Section "bsolo \"lpr\"\\1";
    R.Decision { level = 1; var = 3; value = true };
    R.Decision { level = 2; var = 0; value = false };
    R.Lb_eval { proc = "lpr"; value = -9; path = -2; upper = -1; elapsed_us = 137; pruned = false };
    R.Learned { size = 4; level = 2 };
    R.Backjump { from_level = 2; to_level = 1 };
    R.Prune { blame = "lpr"; lb = -12; path = -3; upper = -12; from_level = 3; to_level = 1 };
    R.Incumbent { cost = -12 };
    R.Import { cost = -13; member = "bsolo \"mis\"" };
    R.Restart;
    R.Gap { dropped = 7 };
    R.Fin { status = "optimal"; nodes = 42; decisions = 40; conflicts = 17 };
  ]

let events_of (rc : R.recording) = List.map snd rc.r_events

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_codec_round_trip () =
  let path = tmp ".rec" in
  let h = header ~flags:0x3bf () in
  let w = R.open_file path h in
  List.iter (R.emit w) all_events;
  R.close w;
  R.close w (* idempotent *);
  (match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc ->
    Alcotest.(check bool) "not truncated" false rc.r_truncated;
    Alcotest.(check bool) "header round-trips, started included" true (h = rc.r_header);
    Alcotest.(check int) "event count" (List.length all_events) (List.length rc.r_events);
    List.iter2
      (fun expected got ->
        Alcotest.(check string) "event round-trips"
          (Telemetry.Json.to_string (R.to_json expected))
          (Telemetry.Json.to_string (R.to_json got));
        Alcotest.(check bool) "event equal" true (expected = got))
      all_events (events_of rc);
    (* Re-rendering the decoded stamps gives them back exactly. *)
    let again = tmp ".rec" in
    (match R.stitch again h [ "m", path ] with Ok () -> () | Error msg -> Alcotest.fail msg);
    match R.read_file again with
    | Error msg -> Alcotest.fail msg
    | Ok rc' ->
      (* stitch replaces the part's sections with its own *)
      let stamps (rc : R.recording) =
        List.filter_map (function _, R.Section _ -> None | t, _ -> Some t) rc.r_events
      in
      Alcotest.(check (list int)) "t_us survives a second pass" (stamps rc) (stamps rc'));
  (* Times are seconds to the microsecond; the reader rounds them back
     (1.000001 * 1e6 is just below 1000001). *)
  let hand = tmp ".rec" in
  write_file hand
    (String.concat "\n"
       [
         List.hd (read_lines path);
         {|{"t":1.000001,"ev":"restart"}|};
         {|{"t":12.345678,"ev":"incumbent","cost":-4,"extra":[1]}|};
         {|{"t":86400.999999,"ev":"later_event","x":1}|};
         {|{"t":1000000.000001,"ev":"restart"}|};
       ]
    ^ "\n");
  match R.read_file hand with
  | Error msg -> Alcotest.fail msg
  | Ok rc ->
    Alcotest.(check (list int)) "exact t_us, unknown events skipped" [ 1000001; 12345678; 1000000000001 ]
      (List.map fst rc.r_events);
    Alcotest.(check bool) "unknown fields skipped" true
      (events_of rc = [ R.Restart; R.Incumbent { cost = -4 }; R.Restart ])

(* [s] contains [sub]. *)
let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* {"t":<seconds with exactly six decimals>,"ev":... *)
let stamped line =
  String.starts_with ~prefix:{|{"t":|} line
  &&
  match String.index_opt line ',' with
  | None -> false
  | Some c ->
    let t = String.sub line 5 (c - 5) in
    String.for_all (fun ch -> ch = '.' || (ch >= '0' && ch <= '9')) t
    && (match String.index_opt t '.' with
       | Some d -> String.length t - d - 1 = 6
       | None -> false)
    && String.starts_with ~prefix:{|,"ev":|} (String.sub line c (String.length line - c))

(* The file is one line per event after the header, stamped to the
   microsecond, with strings escaped; nothing lands after [close]. *)
let test_file_lines () =
  let path = tmp ".rec" in
  let w = R.open_file path (header ()) in
  List.iter (R.emit w) all_events;
  R.close w;
  R.restart w;
  let lines = read_lines path in
  Alcotest.(check int) "header + one line per event, none after close"
    (1 + List.length all_events) (List.length lines);
  List.iteri
    (fun i line ->
      if not (stamped line) then Alcotest.failf "line %d: bad stamp %S" (i + 1) line;
      match Telemetry.Json.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "line %d does not parse: %s" (i + 1) e)
    lines;
  Alcotest.(check bool) "header line first, naming the schema" true
    (contains (List.hd lines) {|,"ev":"header","schema":"bsolo-trace/2","run_id":"cafe0123",|});
  Alcotest.(check bool) "strings are escaped" true
    (String.ends_with ~suffix:{|,"ev":"section","name":"bsolo \"lpr\"\\1"}|} (List.nth lines 1))

let test_ring_wraparound () =
  let path = tmp ".rec" in
  let w = R.open_file ~ring:5 path (header ()) in
  for i = 1 to 12 do
    R.decision w ~level:i ~var:i ~value:(i mod 2 = 0)
  done;
  Alcotest.(check int) "events seen" 12 (R.events_written w);
  Alcotest.(check int) "dropped" 7 (R.ring_dropped w);
  R.close w;
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc -> (
    Alcotest.(check bool) "not truncated" false rc.r_truncated;
    match events_of rc with
    | R.Gap { dropped } :: rest ->
      Alcotest.(check int) "gap records the drop count" 7 dropped;
      Alcotest.(check int) "ring keeps the last 5" 5 (List.length rest);
      List.iteri
        (fun i e ->
          match e with
          | R.Decision { level; _ } -> Alcotest.(check int) "tail in order" (8 + i) level
          | e -> Alcotest.failf "unexpected event %s" (R.event_name e))
        rest
    | e :: _ -> Alcotest.failf "expected Gap first, got %s" (R.event_name e)
    | [] -> Alcotest.fail "empty recording")

let test_ring_no_wrap_no_gap () =
  let path = tmp ".rec" in
  let w = R.open_file ~ring:16 path (header ()) in
  R.decision w ~level:1 ~var:0 ~value:true;
  R.restart w;
  R.close w;
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc ->
    Alcotest.(check bool) "no gap frame when nothing dropped" false
      (List.exists (function R.Gap _ -> true | _ -> false) (events_of rc));
    Alcotest.(check int) "both events kept" 2 (List.length rc.r_events)

(* Kill-mid-write recovery: cut the file inside the last line and the
   reader must return every intact line, flagged truncated. *)
let test_truncated_tail () =
  let path = tmp ".rec" in
  let w = R.open_file path (header ()) in
  List.iter (R.emit w) all_events;
  R.close w;
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 3);
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc ->
    Alcotest.(check bool) "flagged truncated" true rc.r_truncated;
    Alcotest.(check string) "header survives" "cafe0123" rc.r_header.h_run_id;
    (* The torn line is the fin; everything before it survives. *)
    Alcotest.(check int) "intact prefix kept" (List.length all_events - 1)
      (List.length rc.r_events);
    Alcotest.(check bool) "fin is the torn line" false
      (List.exists (function R.Fin _ -> true | _ -> false) (events_of rc))

(* [read_file] refuses [path] with the one error that names the schema. *)
let check_rejected label path =
  match R.read_file path with
  | Ok _ -> Alcotest.failf "%s: read as a recording" label
  | Error msg ->
    Alcotest.(check bool) (label ^ ": the error names the schema: " ^ msg) true
      (contains msg ("not a " ^ R.schema ^ " recording"))

(* Cut even harder: inside the header line.  A file without a whole
   header is no recording. *)
let test_truncated_header () =
  let path = tmp ".rec" in
  let w = R.open_file path (header ()) in
  R.close w;
  Unix.truncate path 40;
  check_rejected "torn header" path

(* A binary bsolo-rec/1 recording, an empty file and a heartbeat file
   are all refused up front. *)
let test_foreign_files () =
  let path = tmp ".rec" in
  write_file path "bsolo-rec/1\n\007\000\002\137\001\003\001\n\255";
  check_rejected "bsolo-rec/1" path;
  write_file path "";
  check_rejected "empty file" path;
  write_file path {|{"schema":"bsolo-heartbeat/1","run_id":"cafe0123"}
|};
  check_rejected "heartbeat file" path;
  (* A corrupt line before the last is an error too, naming the line. *)
  let w = R.open_file path (header ()) in
  List.iter (R.emit w) all_events;
  R.close w;
  let lines = read_lines path in
  let broken = List.mapi (fun i l -> if i = 3 then {|{"t":1.0,"ev":"decision"}|} else l) lines in
  write_file path (String.concat "\n" broken ^ "\n");
  match R.read_file path with
  | Ok _ -> Alcotest.fail "a decision without its fields was read"
  | Error msg -> Alcotest.(check bool) ("names the line: " ^ msg) true (contains msg "line 4")

let test_stitch_sections () =
  let part name events =
    let path = tmp ".part" in
    let w = R.open_file path (header ~engine:name ()) in
    List.iter (R.emit w) events;
    R.close w;
    path
  in
  let a = part "bsolo-lpr" [ R.Decision { level = 1; var = 0; value = true }; R.Restart ] in
  let b = part "bsolo-mis" [ R.Incumbent { cost = 3 } ] in
  let base = tmp ".rec" in
  match R.stitch base (header ~engine:"portfolio" ()) [ "bsolo-lpr", a; "bsolo-mis", b ] with
  | Error msg -> Alcotest.fail msg
  | Ok () -> (
    match R.read_file base with
    | Error msg -> Alcotest.fail msg
    | Ok rc -> (
      Alcotest.(check string) "stitched header" "portfolio" rc.r_header.h_engine;
      match events_of rc with
      | [ R.Section "bsolo-lpr"; R.Decision _; R.Restart; R.Section "bsolo-mis"; R.Incumbent _ ]
        -> ()
      | evs ->
        Alcotest.failf "unexpected stitched stream: %s"
          (String.concat "; " (List.map R.event_name evs))))

(* --- recorded solver runs -------------------------------------------------- *)

(* [engine] is the header's engine name, as the CLI writes it: the
   preset the run starts from, [lb] overriding its lower-bound method. *)
let record_solve ?(engine = "bsolo") ?lb problem path =
  let base = List.assoc engine Bsolo.Options.presets in
  let base = match lb with Some lb_method -> { base with lb_method } | None -> base in
  let h =
    {
      R.h_run_id = "test";
      h_engine = engine;
      h_lb_method = Bsolo.Options.name Bsolo.Options.lb_methods base.lb_method;
      h_started = Unix.gettimeofday ();
      h_nvars = Pbo.Problem.nvars problem;
      h_nconstraints = Array.length (Pbo.Problem.constraints problem);
      h_flags = Bsolo.Replay.flags_of_options base;
      h_lgr_iters = base.lgr_iters;
    }
  in
  let recorder = R.open_file path h in
  let tel = Telemetry.Ctx.create ~timing:false ~recorder () in
  let outcome = Bsolo.Solver.solve ~options:{ base with telemetry = Some tel } problem in
  Telemetry.Ctx.close tel;
  outcome

(* --- a recorded solve ----------------------------------------------------------- *)

(* Elapsed times are the one payload two runs of one solve do not share. *)
let untimed events =
  List.map
    (function _, R.Lb_eval e -> R.Lb_eval { e with elapsed_us = 0 } | _, ev -> ev)
    events

(* The file is what the engine emitted: a solve recorded to a file reads
   back as the event stream a memory recorder collects from the same
   solve, minus the stamps. *)
let test_file_is_memory_recording () =
  let problem = Benchgen.Synthesis.generate 1 in
  let path = tmp ".rec" in
  let outcome = record_solve problem path in
  Alcotest.(check string) "solved" "OPTIMAL" (Bsolo.Outcome.status_name outcome.status);
  let recorder = R.memory () in
  let tel = Telemetry.Ctx.create ~timing:false ~recorder () in
  ignore (Bsolo.Solver.solve ~options:{ Bsolo.Options.default with telemetry = Some tel } problem);
  let memory = R.collected recorder in
  Alcotest.(check bool) "events recorded" true (List.length memory > 100);
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc ->
    Alcotest.(check bool) "file = memory recording, event for event" true
      (untimed rc.r_events = untimed memory)

(* Byte level: past the header, every file line is ["t"] followed by the
   [to_json] rendering of the event a memory recorder collects from the
   same solve (elapsed times zeroed, being the one payload that differs). *)
let test_memory_recording_rendered () =
  let module J = Telemetry.Json in
  let problem = Benchgen.Synthesis.generate 1 in
  let path = tmp ".rec" in
  ignore (record_solve problem path);
  let recorder = R.memory () in
  let tel = Telemetry.Ctx.create ~timing:false ~recorder () in
  ignore (Bsolo.Solver.solve ~options:{ Bsolo.Options.default with telemetry = Some tel } problem);
  let memory = R.collected recorder in
  Alcotest.(check bool) "events recorded" true (List.length memory > 100);
  let untime = List.map (fun (k, v) -> if k = "elapsed_us" then k, J.Int 0 else k, v) in
  let rendered = List.map (fun ev -> J.to_string (R.to_json ev)) (untimed memory) in
  match read_lines path with
  | [] -> Alcotest.fail "empty recording"
  | _header :: lines ->
    let stripped =
      List.map
        (fun l ->
          match J.of_string l with
          | Ok (J.Obj (("t", J.Float _) :: fields)) -> J.to_string (J.Obj (untime fields))
          | Ok _ -> Alcotest.failf "line without a leading t: %s" l
          | Error e -> Alcotest.failf "line does not parse: %s" e)
        lines
    in
    Alcotest.(check (list string)) "file lines = rendered memory recording" rendered stripped

(* The linear-search presets (pbs, galena) record learned clauses too,
   through the same hook as bsolo. *)
let test_linear_search_learned () =
  List.iter
    (fun (preset : Bsolo.Options.t) ->
      let recorder = R.memory () in
      let tel = Telemetry.Ctx.create ~timing:false ~recorder () in
      let options = { preset with telemetry = Some tel } in
      let outcome = Bsolo.Solver.solve ~options (Benchgen.Two_level.generate 1) in
      let learned =
        List.length (List.filter (function _, R.Learned _ -> true | _ -> false) (R.collected recorder))
      in
      Alcotest.(check bool) "conflicts were analysed" true
        (Bsolo.Outcome.counter outcome "engine.conflicts" > 0);
      Alcotest.(check bool) "learned clauses recorded" true (learned > 0))
    [ Bsolo.Options.pbs; Bsolo.Options.galena ]

(* The forensics invariant: every decision is closed by exactly one
   later conflict/prune (or stays open), and each prune is itself a
   node, so blame totals reconcile with the engine's node counter. *)
let check_forensics ?engine label problem =
  let path = tmp ".rec" in
  ignore (record_solve ?engine problem path);
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc -> (
    match Inspect.Forensics.analyze rc with
    | [ a ] -> (
      match a.Inspect.Forensics.a_fin with
      | Some (_, nodes) ->
        Alcotest.(check int) (label ^ ": blame accounts for every node") nodes a.a_accounted
      | None -> Alcotest.fail "recording has no fin line")
    | l -> Alcotest.failf "expected one section, got %d" (List.length l))

let test_forensics_accounting () =
  List.iter
    (fun seed -> check_forensics (Printf.sprintf "seed %d" seed) (Gen.problem seed))
    [ 0; 3; 7; 12; 23 ]

(* pbs counts search nodes, not engine decisions (which include the
   probing decisions), so its recordings account exactly too. *)
let test_forensics_pbs () =
  check_forensics ~engine:"pbs" "pbs two-level" (Benchgen.Two_level.generate 1);
  List.iter
    (fun seed -> check_forensics ~engine:"pbs" (Printf.sprintf "pbs seed %d" seed) (Gen.problem seed))
    [ 0; 3; 7 ]

(* Deterministic replay: re-executing the recorded decision sequence
   reproduces the recorded event stream byte for byte. *)
let check_replay ?engine ?lb label problem =
  let path = tmp ".rec" in
  let recorded = record_solve ?engine ?lb problem path in
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc -> (
    match Bsolo.Replay.run problem rc with
    | Error msg -> Alcotest.fail msg
    | Ok rep ->
      (match rep.Bsolo.Replay.mismatch with
      | Some m ->
        Alcotest.failf "%s: diverged at event %d: recorded %s, replayed %s" label m.at
          m.expected m.got
      | None -> ());
      Alcotest.(check int) (label ^ ": every event checked") rep.total rep.checked;
      Alcotest.(check bool) (label ^ ": the recording is complete") true rep.complete;
      Alcotest.(check string) "same status"
        (Bsolo.Outcome.status_name recorded.Bsolo.Outcome.status)
        (Bsolo.Outcome.status_name rep.outcome.Bsolo.Outcome.status))

let test_replay_matches () =
  List.iter
    (fun (lb, seed) -> check_replay ~lb (Printf.sprintf "seed %d" seed) (Gen.problem seed))
    [ Bsolo.Options.Lpr, 3; Bsolo.Options.Mis, 11; Bsolo.Options.Plain, 17; Bsolo.Options.Lgr, 29 ]

(* pbs and galena run the same driver, so their recordings replay too;
   galena's learning mode comes back from the engine name. *)
let test_replay_linear_search () =
  List.iter
    (fun engine ->
      check_replay ~engine (engine ^ " two-level") (Benchgen.Two_level.generate 1);
      List.iter
        (fun seed ->
          check_replay ~engine (Printf.sprintf "%s seed %d" engine seed) (Gen.problem seed))
        [ 5; 17 ])
    [ "pbs"; "galena" ]

(* A run killed before its fin replays as a matching prefix, but is not
   the complete recording that [replay --check] demands. *)
let test_replay_without_fin () =
  let problem = Gen.problem 3 in
  let path = tmp ".rec" in
  ignore (record_solve problem path);
  let lines = read_lines path in
  let last = List.nth lines (List.length lines - 1) in
  Alcotest.(check bool) "the last line is the fin" true (contains last {|"ev":"fin"|});
  let kept = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  write_file path (String.concat "\n" kept ^ "\n");
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc -> (
    Alcotest.(check bool) "no torn line" false rc.r_truncated;
    match Bsolo.Replay.run problem rc with
    | Error msg -> Alcotest.fail msg
    | Ok rep ->
      Alcotest.(check bool) "no mismatch" true (rep.mismatch = None);
      Alcotest.(check int) "every recorded event matched" rep.total rep.checked;
      Alcotest.(check bool) "reported incomplete" false rep.complete)

let test_replay_rejects_ring () =
  let problem = Gen.problem 3 in
  let path = tmp ".rec" in
  let w = R.open_file ~ring:2 path (header ~nvars:(Pbo.Problem.nvars problem) ()) in
  for i = 1 to 5 do
    R.decision w ~level:i ~var:0 ~value:true
  done;
  R.close w;
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc -> (
    match Bsolo.Replay.run problem rc with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "replay accepted a dropped-prefix ring recording")

(* Header bit 0x80 once selected the warm (set) or cold (clear) LPR path.
   Every recording still sets it; an LPR recording with it clear was made
   under the removed cold path, which replay can no longer re-execute. *)
let test_replay_rejects_cold_lpr () =
  List.iter
    (fun lb ->
      let flags = Bsolo.Replay.flags_of_options (Bsolo.Options.with_lb lb) in
      Alcotest.(check bool) "bit 0x80 always written" true (flags land 0x80 <> 0))
    [ Bsolo.Options.Plain; Bsolo.Options.Mis; Bsolo.Options.Lgr; Bsolo.Options.Lpr ];
  let problem = Gen.problem 3 in
  let path = tmp ".rec" in
  let flags = Bsolo.Replay.flags_of_options Bsolo.Options.default land lnot 0x80 in
  let w = R.open_file path (header ~flags ~nvars:(Pbo.Problem.nvars problem) ()) in
  R.close w;
  match R.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok rc -> (
    match Bsolo.Replay.run problem rc with
    | Error msg ->
      Alcotest.(check bool)
        ("names the removed option: " ^ msg)
        true
        (String.starts_with ~prefix:"recorded under the removed --cold-lpr" msg)
    | Ok _ -> Alcotest.fail "replay accepted a cold-LPR recording")

(* --- the options table ------------------------------------------------------ *)

(* The header flags written before the options table existed, as
   literals: the table must reproduce them bit for bit. *)
let test_header_flags_pinned () =
  let module O = Bsolo.Options in
  let proof = Proof.create (Proof.Sink.of_buffer (Buffer.create 64)) (Gen.problem 0) in
  List.iter
    (fun (label, expected, options) ->
      Alcotest.(check int) label expected (Bsolo.Replay.flags_of_options options))
    [
      "default", 11199, O.default;
      "pbs", 979, O.pbs;
      "galena", 979, O.galena;
      "default with a proof logger", 12223, { O.default with proof = Some proof };
      ( "root cuts, no LP branching",
        7095,
        { O.default with cuts = Cuts_root; lp_guided_branching = false } );
      ( "no incumbent cuts, presolve or adaptive LB",
        8889,
        {
          O.default with
          knapsack_cuts = false;
          cardinality_inference = false;
          presolve = false;
          lb_adaptive = false;
        } );
      "lgr, cuts off", 3007, { (O.with_lb Lgr) with cuts = Cuts_off };
      "pbs, no preprocessing", 963, { O.pbs with preprocess = false };
    ]

let without_limits json =
  match json with
  | Telemetry.Json.Obj fields ->
    Telemetry.Json.Obj
      (List.filter
         (fun (k, _) -> not (List.mem k [ "conflict_limit"; "node_limit"; "time_limit" ]))
         fields)
  | j -> j

(* Any preset, any value of every switch, cuts mode and lower-bound
   method: the header written for the options reconstructs them, as far
   as the run report can tell (limits aside: replay leaves them unset). *)
let qcheck_header_round_trip =
  let module O = Bsolo.Options in
  let gen =
    QCheck2.Gen.(
      tup5 (oneofl O.presets)
        (list_repeat (List.length O.switches) bool)
        (oneofl O.cuts_modes) (oneofl O.lb_methods) (opt (int_bound 1000)))
  in
  QCheck2.Test.make ~name:"header flags round-trip every options-table setting" ~count:200 gen
    (fun ((engine, preset), bits, (_, cuts), (lb_name, lb_method), conflict_limit) ->
      let o =
        List.fold_left2 (fun o (s : O.switch) b -> s.set o b) preset O.switches bits
      in
      let o = { o with cuts; lb_method; conflict_limit } in
      let h =
        {
          (header ~engine ~lb:lb_name ~flags:(Bsolo.Replay.flags_of_options o) ()) with
          h_lgr_iters = o.lgr_iters;
        }
      in
      match Bsolo.Replay.options_of_header h with
      | Error msg -> QCheck2.Test.fail_report msg
      | Ok o' ->
        without_limits (Bsolo.Report.options_json o)
        = without_limits (Bsolo.Report.options_json o'))

(* The report's options object names every setting: flipping any switch,
   or picking another value of any enumerated setting, changes it. *)
let test_report_options_complete () =
  let module O = Bsolo.Options in
  let d = O.default in
  let others table get set =
    List.filter_map (fun (_, v) -> if v = get d then None else Some (set v)) table
  in
  let variants =
    d
    :: List.map (fun (s : O.switch) -> s.set d (not (s.get d))) O.switches
    @ others O.lb_methods (fun o -> o.O.lb_method) (fun lb_method -> { d with lb_method })
    @ others O.cuts_modes (fun o -> o.O.cuts) (fun cuts -> { d with cuts })
    @ others O.learnings (fun o -> o.O.learning) (fun learning -> { d with learning })
    @ [ { d with lgr_iters = d.lgr_iters + 1 } ]
  in
  let jsons = List.map (fun o -> Telemetry.Json.to_string (Bsolo.Report.options_json o)) variants in
  Alcotest.(check int) "every variant reports differently" (List.length variants)
    (List.length (List.sort_uniq compare jsons))

let suite =
  [
    Alcotest.test_case "codec: all events round-trip" `Quick test_codec_round_trip;
    Alcotest.test_case "file: one stamped line per event" `Quick test_file_lines;
    Alcotest.test_case "ring: wraparound keeps tail + gap" `Quick test_ring_wraparound;
    Alcotest.test_case "ring: no gap without wraparound" `Quick test_ring_no_wrap_no_gap;
    Alcotest.test_case "reader: torn tail recovered" `Quick test_truncated_tail;
    Alcotest.test_case "reader: torn header rejected" `Quick test_truncated_header;
    Alcotest.test_case "reader: foreign files rejected" `Quick test_foreign_files;
    Alcotest.test_case "stitch: member sections" `Quick test_stitch_sections;
    Alcotest.test_case "trace: memory recording rendered" `Quick test_memory_recording_rendered;
    Alcotest.test_case "trace: file recording rendered" `Quick test_file_is_memory_recording;
    Alcotest.test_case "linear search records learned" `Quick test_linear_search_learned;
    Alcotest.test_case "forensics: blame accounts for all nodes" `Quick test_forensics_accounting;
    Alcotest.test_case "forensics: pbs accounts for all nodes" `Quick test_forensics_pbs;
    Alcotest.test_case "replay: recorded runs replay exactly" `Quick test_replay_matches;
    Alcotest.test_case "replay: pbs and galena replay exactly" `Quick test_replay_linear_search;
    Alcotest.test_case "replay: a recording without fin is incomplete" `Quick test_replay_without_fin;
    Alcotest.test_case "replay: rejects ring recordings" `Quick test_replay_rejects_ring;
    Alcotest.test_case "replay: rejects cold-LPR recordings" `Quick test_replay_rejects_cold_lpr;
    Alcotest.test_case "options: header flags pinned" `Quick test_header_flags_pinned;
    QCheck_alcotest.to_alcotest qcheck_header_round_trip;
    Alcotest.test_case "options: report names every setting" `Quick test_report_options_complete;
  ]
