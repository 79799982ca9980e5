(* `bsolo inspect`: analyse the run reports, traces, span files,
   heartbeats, metrics files and flight recordings a solve leaves
   behind. *)

open Cmdliner

let print_lines = List.iter print_endline

let inspect_report path json =
  let label field = Option.bind (Inspect.Json.member field json) Inspect.Json.to_string_opt in
  Printf.printf "== %s ==\n" path;
  (match label "engine", label "instance", label "status" with
  | engine, instance, status ->
    let num field =
      match Option.bind (Inspect.Json.member field json) Inspect.Json.to_int with
      | Some v -> string_of_int v
      | None -> "-"
    in
    Printf.printf "engine=%s instance=%s status=%s cost=%s proved_lb=%s elapsed=%.3fs\n"
      (Option.value ~default:"?" engine)
      (Option.value ~default:"?" instance)
      (Option.value ~default:"?" status)
      (num "cost") (num "proved_lb") (Inspect.elapsed json));
  print_newline ();
  print_endline "per-procedure effectiveness:";
  print_lines (Inspect.render_effectiveness (Inspect.effectiveness json));
  print_newline ();
  print_endline "incumbent timeline:";
  print_lines (Inspect.render_timeline (Inspect.incumbent_points json));
  print_newline ();
  print_endline "search-tree shape:";
  print_lines (Inspect.render_tree_shape json);
  print_newline ();
  print_endline "propagation engine:";
  print_lines (Inspect.render_bcp json);
  print_newline ();
  print_endline "cut pool and presolve:";
  print_lines (Inspect.render_cuts json);
  print_newline ()

(* Clear the terminal and render the status view of the heartbeat
   snapshots seen so far, newest first. *)
let repaint seen =
  print_string "\027[H\027[2J";
  List.iter print_endline (Inspect.heartbeat_view (List.rev seen));
  flush stdout

(* Tail a heartbeat JSONL file, re-rendering the status view as
   snapshots arrive; stops at the end record.  The writer flushes every
   complete line, so a torn tail line is at worst one missed repaint. *)
let follow_heartbeat path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let seen = ref [] in
  let finished = ref false in
  while not !finished do
    let progressed = ref false in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then begin
           match Inspect.Json.of_string line with
           | Ok j ->
             seen := j :: !seen;
             progressed := true;
             if Inspect.Json.member "end" j = Some (Inspect.Json.Bool true) then raise Exit
           | Error _ -> ()
         end
       done
     with
    | End_of_file -> ()
    | Exit -> finished := true);
    if !progressed then repaint !seen;
    if not !finished then Unix.sleepf 0.3
  done;
  print_endline "run ended.";
  0

(* `bsolo inspect forensics REC`: reconstruct the search tree from a
   flight recording and explain where it went. *)
let forensics_run rec_path node =
  let error msg =
    Printf.eprintf "bsolo inspect: %s\n" msg;
    2
  in
  match Telemetry.Recorder.read_file rec_path with
  | Error msg -> error msg
  | Ok rc ->
    Printf.printf "== %s (flight recording) ==\n" rec_path;
    let h = rc.Telemetry.Recorder.r_header in
    Printf.printf "engine=%s lb=%s run=%s vars=%d constraints=%d flags=0x%x\n"
      h.Telemetry.Recorder.h_engine
      (if h.h_lb_method = "" then "-" else h.h_lb_method)
      (if h.h_run_id = "" then "-" else h.h_run_id)
      h.h_nvars h.h_nconstraints h.h_flags;
    if rc.r_truncated then print_endline "torn tail: a truncated last line was dropped";
    print_newline ();
    (match node with
    | Some n -> (
      match Inspect.Forensics.node_fate rc n with
      | Ok f ->
        print_lines (Inspect.Forensics.render_node_fate f);
        0
      | Error msg -> error msg)
    | None ->
      print_lines (Inspect.Forensics.render (Inspect.Forensics.analyze rc));
      0)

let inspect_run files diff_mode trace_file spans_file live_file follow check threshold show_all
    node metrics_file =
  let error msg =
    Printf.eprintf "bsolo inspect: %s\n" msg;
    2
  in
  let load path k = match Inspect.load_file path with Ok j -> k j | Error msg -> error msg in
  match metrics_file with
  | Some path -> (
    match Telemetry.Promtext.lint_file path with
    | exception Sys_error msg -> error msg
    | Ok samples ->
      Printf.printf "== %s (metrics) ==\nOK: lint-clean exposition, %d samples\n" path samples;
      0
    | Error violations ->
      Printf.printf "== %s (metrics) ==\n" path;
      List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
      1)
  | None ->
  match files with
  | "forensics" :: rest -> (
    match rest with
    | [ rec_path ] -> forensics_run rec_path node
    | [] -> error "forensics needs a --record recording file"
    | _ -> error "forensics takes exactly one recording file")
  | _ ->
  match spans_file with
  | Some path ->
    (match Inspect.load_spans path with
    | Error msg -> error msg
    | Ok events ->
      Printf.printf "== %s (spans) ==\n" path;
      (match Inspect.validate_spans events with
      | Ok stats ->
        print_lines (Inspect.render_span_stats stats);
        0
      | Error violations ->
        List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
        1))
  | None ->
  match live_file with
  | Some path when follow -> follow_heartbeat path
  | Some path ->
    (match Inspect.load_trace path with
    | Error msg -> error msg
    | Ok (lines, _skipped) ->
      Printf.printf "== %s (heartbeat) ==\n" path;
      print_lines (Inspect.heartbeat_view lines);
      if check then (
        match Inspect.heartbeat_check lines with
        | Ok summary ->
          print_lines summary;
          0
        | Error violations ->
          List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
          1)
      else 0)
  | None ->
  match trace_file, diff_mode, files with
  | Some path, _, _ ->
    (match Telemetry.Recorder.read_file path with
    | Error msg -> error msg
    | Ok rc ->
      Printf.printf "== %s (recording) ==\n" path;
      print_lines (Inspect.trace_summary rc);
      0)
  | None, true, [ a; b ] ->
    load a (fun ja ->
        load b (fun jb ->
            let entries = Inspect.diff ~threshold ja jb in
            Printf.printf "== diff %s -> %s (threshold %.0f%%) ==\n" a b (100. *. threshold);
            print_lines (Inspect.render_diff ~all:show_all entries);
            if Inspect.has_regression entries then 1 else 0))
  | None, true, _ -> error "--diff needs exactly two report files"
  | None, false, [] -> error "no report file given (or use --trace FILE)"
  | None, false, files ->
    let rec go = function
      | [] -> 0
      | path :: rest ->
        load path (fun json ->
            inspect_report path json;
            go rest)
    in
    go files

let inspect_files_arg =
  let doc =
    "Run report(s) (--json output) to analyse; or $(b,forensics) $(i,RECORDING) to \
     reconstruct the search tree from a --record flight recording (per-procedure subtree \
     blame by depth band, wasted work, gap stalls)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"REPORT" ~doc)

let diff_flag =
  let doc = "Compare two reports and flag counter/time regressions beyond --threshold." in
  Arg.(value & flag & info [ "diff" ] ~doc)

let inspect_trace_arg =
  let doc =
    "Summarize a $(b,--record) flight recording instead of a report: event tally and \
     incumbent trajectory (tolerates a torn last line)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let inspect_spans_arg =
  let doc =
    "Validate a --trace-spans Chrome trace file (schema bsolo-spans/2): one run header, only \
     M and X events, and per track X intervals that are nested or disjoint (within 1 us).  \
     Exit 1 on any violation."
  in
  Arg.(value & opt (some string) None & info [ "spans" ] ~docv:"FILE" ~doc)

let inspect_live_arg =
  let doc = "Render a --heartbeat JSONL file as a terminal status view (see also --follow)." in
  Arg.(value & opt (some string) None & info [ "live" ] ~docv:"FILE" ~doc)

let inspect_follow_arg =
  let doc = "With --live, tail the file and repaint as snapshots arrive." in
  Arg.(value & flag & info [ "follow" ] ~doc)

let inspect_check_arg =
  let doc =
    "With --live, verify heartbeat invariants (>= 2 snapshots, non-widening gaps, end record); \
     exit 1 on violation."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let threshold_arg =
  let doc = "Relative regression threshold for --diff (0.25 = +25%)." in
  Arg.(value & opt float 0.25 & info [ "threshold" ] ~docv:"FRACTION" ~doc)

let diff_all_arg =
  let doc = "In --diff mode, print all compared metrics, not only regressions." in
  Arg.(value & flag & info [ "all" ] ~doc)

let inspect_node_arg =
  let doc =
    "With $(b,forensics): explain one decision ($(docv) is its 1-based index in recording \
     order) — the path that led to it and the exact event that closed its subtree."
  in
  Arg.(value & opt (some int) None & info [ "node" ] ~docv:"N" ~doc)

let inspect_metrics_arg =
  let doc =
    "Validate a Prometheus text exposition file ($(b,--metrics) output or a saved \
     $(b,/metrics) scrape) with the in-repo lint; exit 1 on any violation."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "analyse run reports, traces and flight recordings" in
  let info = Cmd.info "inspect" ~doc in
  Cmd.v info
    Term.(
      const inspect_run $ inspect_files_arg $ diff_flag $ inspect_trace_arg $ inspect_spans_arg
      $ inspect_live_arg $ inspect_follow_arg $ inspect_check_arg $ threshold_arg $ diff_all_arg $ inspect_node_arg $ inspect_metrics_arg)

