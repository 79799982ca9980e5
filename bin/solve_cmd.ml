(* `bsolo solve` (the default command): solve an OPB/CNF instance with
   one engine or the portfolio, optionally observed by any of the
   telemetry sinks.  The search flags are generated from the settings
   table in {!Bsolo.Options}. *)

open Cmdliner

let parse path =
  if Filename.check_suffix path ".cnf" || Filename.check_suffix path ".dimacs" then
    Pbo.Dimacs.parse_file path
  else Pbo.Opb.parse_file path

(* Phase table and counter dump, PB-competition comment style, on stderr
   so the `s`/`o`/`v` protocol lines on stdout stay machine-parsable. *)
let print_stats ~portfolio tel elapsed =
  let phases = Telemetry.Timer.snapshot tel.Telemetry.Ctx.timer in
  let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0. phases in
  Printf.eprintf "c phase times (self seconds%s):\n"
    (if portfolio then ", summed over portfolio members" else "");
  List.iter
    (fun (p, s) ->
      Printf.eprintf "c   %-12s %8.3f  %5.1f%%\n" (Telemetry.Phase.name p) s
        (if elapsed > 0. then 100. *. s /. elapsed else 0.))
    phases;
  Printf.eprintf "c   %-12s %8.3f  (elapsed %.3f, covered %.1f%%)\n" "total" covered elapsed
    (if elapsed > 0. then 100. *. covered /. elapsed else 0.);
  let counters = Telemetry.Registry.counters tel.registry in
  if counters <> [] then begin
    Printf.eprintf "c counters:\n";
    List.iter (fun (name, v) -> Printf.eprintf "c   %-28s %d\n" name v) counters
  end;
  let gauges = Telemetry.Registry.gauges tel.registry in
  if gauges <> [] then begin
    Printf.eprintf "c gauges:\n";
    List.iter (fun (name, v) -> Printf.eprintf "c   %-28s %g\n" name v) gauges
  end

let unsupported msg =
  Printf.eprintf "c parse error: %s\n" msg;
  print_string "s UNSUPPORTED\n";
  2

let fatal msg =
  Printf.eprintf "c error: %s\n%!" msg;
  exit 2

(* Random hex run id: correlates every artifact (report, recording,
   spans, heartbeats, proof log) a single invocation leaves behind. *)
let make_run_id () =
  let st = Random.State.make_self_init () in
  String.concat "" (List.init 4 (fun _ -> Printf.sprintf "%04x" (Random.State.bits st land 0xffff)))

(* Where a solve reports: logging, the run report, and every telemetry
   and certificate sink. *)
type sinks = {
  verbosity : int;
  stats : bool;
  json_file : string option;
  proof_file : string option;
  span_file : string option;
  heartbeat_file : string option;
  heartbeat_every : float;
  metrics_file : string option;
  record_file : string option;
  record_ring : int option;
  listen : string option;
}

(* Flag bounds checked before any sink opens: the live monitor's fastest
   tick, and the largest ring the recorder allocates up front. *)
let min_heartbeat_every = 0.01
let max_record_ring = 1 lsl 24

(* [engine] names the preset [options] started from, or "milp". *)
let solve_file ~path ~engine ~portfolio ~jobs ~verify (options : Bsolo.Options.t) sinks =
  let { verbosity; stats; json_file; proof_file; span_file;
        heartbeat_file; heartbeat_every; metrics_file; record_file; record_ring; listen } =
    sinks
  in
  if verbosity > 0 then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbosity = 1 then Logs.Info else Logs.Debug))
  end;
  (* Only the search driver produces derivation steps, and only while it
     learns clauses: bsolo and pbs log, the portfolio stitches its
     logging members.  Galena's cardinality reductions and the MILP
     baseline's LP prunes have no steps, and a silently step-free or
     learning-free "proof" from them would be worse than an error. *)
  if proof_file <> None && (engine = "galena" || engine = "milp") && not portfolio then
    fatal
      ("--proof is only supported by the bsolo and pbs engines and --portfolio (got --engine "
      ^ engine ^ ")");
  (* Validate the listen address before any work: a typo'd --listen must
     fail fast, not after a long parse. *)
  let listen_addr =
    Option.map
      (fun spec ->
        match Obsd.Client.parse_addr spec with
        | Ok addr -> addr
        | Error msg -> fatal ("--listen: " ^ msg))
      listen
  in
  (* A zero, negative or tiny cadence would spin the live monitor (a
     snapshot every loop turn). *)
  if not (Float.is_finite heartbeat_every && heartbeat_every >= min_heartbeat_every) then
    fatal
      (Printf.sprintf "--heartbeat-every needs a finite number of seconds, at least %g"
         min_heartbeat_every);
  (match record_ring with
  | Some _ when record_file = None -> fatal "--record-ring needs --record FILE"
  | Some n when n <= 0 -> fatal "--record-ring needs a positive event count"
  | Some n when n > max_record_ring ->
    fatal (Printf.sprintf "--record-ring allows at most %d events" max_record_ring)
  | Some _ when portfolio ->
    fatal "--record-ring is not supported with --portfolio (members stream direct recordings)"
  | Some _ | None -> ());
  (* Open the sink before parsing so a bad --proof path fails fast.  The
     portfolio manages its own per-member part sinks and stitches the
     final file itself, so no sink is opened here in that mode. *)
  let proof_sink =
    match proof_file with
    | Some f when not portfolio -> (
      try Some (Proof.Sink.open_file f)
      with Sys_error msg -> fatal ("cannot open proof file: " ^ msg))
    | Some _ | None -> None
  in
  (* A parse abort must not leave a truncated proof log behind: terminate
     whatever was requested with a well-formed empty derivation and the
     NONE conclusion, then close (flush) the sink. *)
  let unsupported msg =
    (match proof_sink with
    | Some sink ->
      Proof.Sink.write sink ("p " ^ Proof.version);
      Proof.Sink.write sink "f 0";
      Proof.Sink.write sink "c NONE";
      Proof.Sink.close sink
    | None -> (
      match proof_file with
      | Some f -> (
        try
          let oc = open_out f in
          Printf.fprintf oc "p %s\nf 0\nc NONE\n" Proof.version;
          close_out oc
        with Sys_error _ -> ())
      | None -> ()));
    unsupported msg
  in
  match parse path with
  | exception (Pbo.Opb.Parse_error msg | Pbo.Dimacs.Parse_error msg | Sys_error msg) ->
    unsupported msg
  | problem ->
    Logs.debug (fun m ->
        m "parsed %s: %d vars, %d constraints%s" path (Pbo.Problem.nvars problem)
          (Array.length (Pbo.Problem.constraints problem))
          (if Pbo.Problem.is_satisfaction problem then " (satisfaction)" else ""));
    let options = { options with proof = Option.map (fun s -> Proof.create s problem) proof_sink } in
    let run_id = make_run_id () in
    let started = Unix.gettimeofday () in
    let want_report = stats || json_file <> None in
    let observing =
      span_file <> None || heartbeat_file <> None || metrics_file <> None || listen_addr <> None
    in
    let want_telemetry = want_report || observing || record_file <> None in
    (* The run header: the flight recording's first line.  Its flags
       snapshot the tree-shaping options exactly as `bsolo replay` will
       reconstruct them. *)
    let header =
      {
        Telemetry.Recorder.h_run_id = run_id;
        h_engine = (if portfolio then "portfolio" else engine);
        h_lb_method = Bsolo.Options.name Bsolo.Options.lb_methods options.lb_method;
        h_started = started;
        h_nvars = Pbo.Problem.nvars problem;
        h_nconstraints = Array.length (Pbo.Problem.constraints problem);
        h_flags = Bsolo.Replay.flags_of_options options;
        h_lgr_iters = options.lgr_iters;
      }
    in
    (* Flight recorder: opened before the telemetry context so the context
       owns it and every engine emits through it.  The portfolio manages its own per-member part recordings and
       stitches the final file itself, so none is opened here in that
       mode. *)
    let recorder =
      match record_file with
      | Some f when not portfolio -> (
        try Some (Telemetry.Recorder.open_file ?ring:record_ring f header)
        with Sys_error msg -> fatal ("cannot open recording file: " ^ msg))
      | Some _ | None -> None
    in
    let tel =
      if not want_telemetry then None
      else begin
        let spans =
          match span_file with
          | None -> None
          | Some f -> (
            try
              let sp = Telemetry.Span.open_file f in
              Telemetry.Span.header sp ~run_id ~started;
              Some sp
            with Sys_error msg -> fatal ("cannot open span file: " ^ msg))
        in
        (* The main-context cell: observed whenever anything reads it
           (spans, heartbeats, metrics, the server), inert otherwise so
           silent runs keep the zero-cost hot path. *)
        let cell =
          if observing then begin
            let name = if portfolio then "main" else engine in
            let c = Telemetry.Profile.Cell.make ~observed:true ~name () in
            (match spans with
            | Some sp -> Telemetry.Span.name_track sp ~track:(Telemetry.Profile.Cell.track c) name
            | None -> ());
            Some c
          end
          else None
        in
        let ctx = Telemetry.Ctx.create ~timing:want_report ?spans ?cell ?recorder () in
        Option.iter (fun c -> Telemetry.Profile.register c ctx.registry) cell;
        Some ctx
      end
    in
    (* The live monitor: one domain feeding the heartbeat file, the
       metrics file and the --listen endpoints from one snapshot per tick.
       It starts before the solve, so even an instant run gets its
       start/stop snapshot pair and an unwritable --metrics path fails
       here. *)
    let monitor =
      match tel with
      | Some tel when heartbeat_file <> None || metrics_file <> None || listen_addr <> None ->
        let heartbeat =
          Option.map
            (fun f ->
              try Telemetry.Snapshot.open_file f ~run_id ~started ~every:heartbeat_every
              with Sys_error msg -> fatal ("cannot open heartbeat file: " ^ msg))
            heartbeat_file
        in
        let render =
          Obsd.Monitor.live ~run_id ~engine:header.h_engine ~instance:path ~started
        in
        let m =
          try
            Obsd.Monitor.start ?listen:listen_addr ?heartbeat ?metrics_file
              ~registry:tel.registry ~render ~every:heartbeat_every ()
          with
          | Sys_error msg -> fatal ("cannot write metrics file: " ^ msg)
          | Failure msg -> fatal ("--listen: " ^ msg)
          | Unix.Unix_error (e, _, _) ->
            let host, port = Option.get listen_addr in
            fatal (Printf.sprintf "--listen %s:%d: %s" host port (Unix.error_message e))
        in
        (* Machine-parsed by the smoke harness; with port 0 this is the
           only place the chosen port is reported. *)
        (match listen_addr, Obsd.Monitor.port m with
        | Some (host, _), Some port ->
          Printf.printf "c obsd: listening on http://%s:%d\n%!" host port
        | _ -> ());
        Some m
      | _ -> None
    in
    let stop_monitor () =
      Option.iter
        (Obsd.Monitor.stop
           ~final_event:
             ( "end",
               Telemetry.Json.to_string
                 (Telemetry.Json.Obj
                    [
                      "run_id", Telemetry.Json.String run_id;
                      "t", Telemetry.Json.Float (Telemetry.Epoch.now ());
                    ]) ))
        monitor
    in
    (* Keep a recording / span file / heartbeat (and a proof log) parseable on
       abnormal exit: close (flush) the sinks from signal handlers and
       at_exit.  All closes are idempotent, so the normal shutdown path is
       unaffected. *)
    let close_sinks () =
      (* The final snapshot, the heartbeat end record, the metrics file
         and the /events "end" frame. *)
      stop_monitor ();
      Option.iter Telemetry.Ctx.close tel;
      match proof_sink with Some s -> Proof.Sink.close s | None -> ()
    in
    if
      (Option.is_some tel && span_file <> None)
      || Option.is_some monitor || Option.is_some proof_sink || Option.is_some recorder
    then begin
      at_exit close_sinks;
      let close_and_exit n =
        Sys.Signal_handle
          (fun _ ->
            close_sinks ();
            exit (128 + n))
      in
      List.iter
        (fun (signal, n) ->
          try Sys.set_signal signal (close_and_exit n) with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigint, 2; Sys.sigterm, 15; Sys.sighup, 1 ]
    end;
    let start = Unix.gettimeofday () in
    let incumbents = ref [] in
    let note_incumbent cost =
      incumbents := { Bsolo.Report.at = Unix.gettimeofday () -. start; cost } :: !incumbents
    in
    let options =
      {
        options with
        telemetry = tel;
        on_incumbent = Some (fun _ cost -> note_incumbent cost);
      }
    in
    (* Correlate the proof log with the run's other artifacts, and trace
       its periodic flushes as spans on the main track. *)
    Option.iter (fun logger -> Proof.log_comment logger ("run " ^ run_id)) options.proof;
    (match proof_sink, tel with
    | Some sink, Some tel when span_file <> None ->
      let track = Telemetry.Profile.Cell.track tel.Telemetry.Ctx.cell in
      Proof.Sink.set_flush_hook sink (fun ~lines:_ ~seconds ->
          let stop = Unix.gettimeofday () in
          Telemetry.Span.complete ~cat:"io" tel.spans ~track ~name:"proof_flush"
            ~start:(stop -. seconds) ~stop)
    | _ -> ());
    Logs.debug (fun m ->
        m "engine=%s telemetry=%b options=%s" engine (tel <> None)
          (Telemetry.Json.to_string (Bsolo.Report.options_json options)));
    Option.iter
      (fun m ->
        try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Obsd.Monitor.request m))
        with Invalid_argument _ | Sys_error _ -> ())
      monitor;
    let portfolio_run = ref None in
    let outcome =
      if portfolio then begin
        let jobs =
          match jobs with
          | Some j -> max 1 j
          | None -> Domain.recommended_domain_count ()
        in
        let budget = match options.time_limit with Some t -> t | None -> infinity in
        Logs.debug (fun m -> m "portfolio: jobs=%d budget=%g" jobs budget);
        let r =
          Portfolio.solve ?telemetry:tel ~run_id ~observe:observing ?proof_file ?record_file ~jobs
            ~budget problem
        in
        portfolio_run := Some (r, jobs);
        r.outcome
      end
      else if engine = "milp" then Milp.Branch_and_bound.solve ~options problem
      else Bsolo.Solver.solve ~options problem
    in
    (* Join the monitor domain before reports are assembled: the final
       heartbeat must reflect the whole solve. *)
    stop_monitor ();
    (match monitor with
    | Some m when listen <> None ->
      let st = Obsd.Monitor.stats m in
      Printf.printf "c obsd: served %d requests, %d SSE frames dropped\n" st.served st.dropped
    | Some _ | None -> ());
    (* Portfolio members publish into their shared incumbent cell, not
       into [options.on_incumbent]: the portfolio's trajectory is its
       final incumbent. *)
    if portfolio then Option.iter (fun (_, c) -> note_incumbent c) outcome.best;
    (* Output in the PB-competition style. *)
    (match outcome.status with
    | Bsolo.Outcome.Optimal ->
      (match outcome.best with
      | Some (_, c) -> Printf.printf "o %d\ns OPTIMUM FOUND\n" c
      | None -> Printf.printf "s OPTIMUM FOUND\n")
    | Bsolo.Outcome.Satisfiable -> Printf.printf "s SATISFIABLE\n"
    | Bsolo.Outcome.Unsatisfiable -> Printf.printf "s UNSATISFIABLE\n"
    | Bsolo.Outcome.Unknown ->
      (match outcome.best with
      | Some (_, c) -> Printf.printf "o %d\ns UNKNOWN\n" c
      | None -> Printf.printf "s UNKNOWN\n"));
    (match outcome.best with
    | Some (m, _) ->
      let buf = Buffer.create 256 in
      for v = 0 to Pbo.Model.nvars m - 1 do
        if v > 0 then Buffer.add_char buf ' ';
        if not (Pbo.Model.value m v) then Buffer.add_char buf '-';
        Buffer.add_string buf ("x" ^ string_of_int (v + 1))
      done;
      Printf.printf "v %s\n" (Buffer.contents buf)
    | None -> ());
    Printf.printf "c %s\n" (Format.asprintf "%a" Bsolo.Outcome.pp outcome);
    (match options.proof, proof_file with
    | Some logger, Some f ->
      Proof.Sink.close (Option.get proof_sink);
      Printf.printf "c proof: %s (%d steps, %d uncertified prunes avoided)\n" f
        (Proof.steps logger) (Proof.uncertified logger)
    | _, Some f when portfolio -> Printf.printf "c proof: %s (stitched portfolio log)\n" f
    | _, _ -> ());
    (match recorder, record_file with
    | Some r, Some f ->
      let dropped = Telemetry.Recorder.ring_dropped r in
      Printf.printf "c recording: %s (%d events%s)\n" f
        (Telemetry.Recorder.events_written r)
        (if dropped > 0 then Printf.sprintf ", %d dropped by the ring" dropped else "")
    | None, Some f when portfolio ->
      Printf.printf "c recording: %s (stitched portfolio recording)\n" f
    | _, _ -> ());
    (match !portfolio_run with
    | None -> ()
    | Some (r, jobs) ->
      Printf.printf "c portfolio: jobs=%d winner=%s\n" jobs r.Portfolio.winner;
      List.iter
        (fun (name, o) ->
          Printf.printf "c   %-10s %s\n" name (Format.asprintf "%a" Bsolo.Outcome.pp o))
        r.runs;
      List.iter
        (fun (name, msg) -> Printf.printf "c   %-10s CRASHED: %s\n" name msg)
        r.failures;
      (match r.disagreement with
      | None -> ()
      | Some d -> Printf.printf "c portfolio DISAGREEMENT: %s\n" d));
    (match tel with
    | None -> ()
    | Some tel ->
      if stats then print_stats ~portfolio tel outcome.elapsed;
      (match json_file with
      | None -> ()
      | Some out ->
        let report =
          Bsolo.Report.make ~instance:path
            ~engine:(if portfolio then "portfolio" else engine)
            ~run_id ~started ~problem ~options
            ~incumbents:(List.rev !incumbents) ~telemetry:tel outcome
        in
        (try Bsolo.Report.write_file out report
         with Sys_error msg -> fatal ("cannot write report: " ^ msg)));
      Telemetry.Ctx.close tel);
    (if verify then
       match Bsolo.Certify.check problem outcome with
       | Ok () -> Printf.printf "c verification: OK\n"
       | Error e ->
         Printf.printf "c verification: FAILED (%s)\n" e;
         exit 3);
    (match !portfolio_run with
    | Some ({ Portfolio.disagreement = Some _; _ }, _) -> 3
    | Some _ | None -> (
      match outcome.status with
      | Bsolo.Outcome.Optimal | Bsolo.Outcome.Satisfiable | Bsolo.Outcome.Unsatisfiable -> 0
      | Bsolo.Outcome.Unknown -> 1))

let file_arg =
  let doc = "OPB instance file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

(* --- the search settings, generated from the Options table -------------- *)

module O = Bsolo.Options

(* What a flag overrides: the setting's value in each preset, e.g.
   "lpr with bsolo, plain with pbs and galena". *)
let preset_values show =
  let shown = List.map (fun (engine, o) -> engine, show o) O.presets in
  let values =
    List.fold_left (fun vs (_, v) -> if List.mem v vs then vs else vs @ [ v ]) [] shown
  in
  let engines v = List.filter_map (fun (e, v') -> if v = v' then Some e else None) shown in
  match values with
  | [ v ] -> v
  | _ ->
    String.concat ", " (List.map (fun v -> v ^ " with " ^ String.concat " and " (engines v)) values)

let setting_arg table name ~docv ~doc get =
  let absent = preset_values (fun o -> O.name table (get o)) in
  Arg.(value & opt (some (enum table)) None & info [ name ] ~docv ~doc ~absent)

(* One flag per distinct [Options.switch] flag; it clears every switch
   that names it. *)
let switch_flags =
  let flags = List.sort_uniq compare (List.filter_map (fun (s : O.switch) -> s.flag) O.switches) in
  List.fold_left
    (fun edit (name, doc) ->
      let members = List.filter (fun (s : O.switch) -> s.flag = Some (name, doc)) O.switches in
      let absent =
        String.concat "; "
          (List.map
             (fun (s : O.switch) ->
               s.key ^ " " ^ preset_values (fun o -> if s.get o then "on" else "off"))
             members)
      in
      let clear on o =
        if on then List.fold_left (fun o (s : O.switch) -> s.set o false) o members else o
      in
      let arg = Arg.(value & flag & info [ name ] ~doc ~absent) in
      Term.(const (fun edit on o -> clear on (edit o)) $ edit $ arg))
    (Term.const Fun.id) flags

(* The engine's preset, edited by every search flag the same way for
   every engine; the engine's name comes along. *)
let options_term =
  let engine =
    let choices =
      List.map (fun (name, o) -> name, (name, o)) O.presets @ [ "milp", ("milp", O.default) ]
    in
    let doc =
      "Solver engine: a preset of the search settings below, or milp.  bsolo is \
       branch-and-bound with SAT-style learning and lower bounding; pbs and galena are the \
       same search without lower bounding: every new incumbent is blocked by the knapsack \
       cut (10) in the constraint store, and galena also learns the cardinality reduction \
       of PB conflict constraints.  Every search flag edits the chosen preset.  milp is the \
       LP-based branch-and-bound baseline; of the search flags it uses $(b,--timeout) alone."
    in
    let default = snd (List.hd choices) in
    Arg.(value & opt (enum choices) default & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let lb =
    setting_arg O.lb_methods "lb" ~docv:"METHOD"
      ~doc:"Lower-bound procedure: plain, mis, lgr or lpr." (fun o -> o.lb_method)
  in
  let cuts =
    setting_arg O.cuts_modes "cuts" ~docv:"MODE"
      ~doc:
        "LP cut separation mode: $(b,off), $(b,root) (separate cover/clique/implied-bound \
         cuts against the fractional LPR optimum at decision level 0 only) or $(b,tree) \
         (separate at every LP evaluation).  Cuts live only in the LP relaxation, managed \
         by an activity-aged pool; in proof mode every cut is certified before use."
      (fun o -> o.cuts)
  in
  let time_limit =
    let doc = "Wall-clock time limit in seconds." in
    Arg.(value & opt (some float) None & info [ "timeout"; "t" ] ~doc)
  in
  let conflict_limit =
    let doc = "Conflict limit." in
    Arg.(value & opt (some int) None & info [ "conflicts" ] ~doc)
  in
  let make (engine, (preset : O.t)) lb cuts time_limit conflict_limit edit =
    let pick v default = Option.value v ~default in
    ( engine,
      edit
        {
          preset with
          lb_method = pick lb preset.lb_method;
          cuts = pick cuts preset.cuts;
          time_limit;
          conflict_limit;
        } )
  in
  Term.(const make $ engine $ lb $ cuts $ time_limit $ conflict_limit $ switch_flags)

(* --- the other solve flags -------------------------------------------------- *)

let portfolio_arg =
  let doc =
    "Run the solver portfolio (bsolo-lpr, bsolo-mis, pbs-like, milp) instead of a single \
     engine; see $(b,--jobs) for parallelism.  $(b,--engine) and $(b,--lb) are ignored."
  in
  Arg.(value & flag & info [ "portfolio" ] ~doc)

let jobs_arg =
  let doc =
    "With $(b,--portfolio): number of worker domains.  Defaults to the number of cores \
     (Domain.recommended_domain_count); $(b,--jobs 1) runs the members sequentially under \
     split time slices."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let verify_arg =
  let doc = "Independently re-check the reported model and cost." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let verbose_arg =
  let doc = "Verbose logging; repeat ($(b,-vv)) for debug output." in
  Arg.(value & flag_all & info [ "verbose"; "v" ] ~doc)

let stats_arg =
  let doc = "Print a per-phase time table and the counter registry to stderr." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let json_arg =
  let doc = "Write a machine-readable run report (see docs/OBSERVABILITY.md) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let proof_file_arg =
  let doc =
    "Stream a certified derivation log (format $(b,bsolo-pbp 1), see docs/PROOFS.md) to \
     $(docv): RUP steps for learned clauses, explicit multiplier certificates for \
     bound-based prunes, verified incumbents, and a terminating conclusion.  Re-check with \
     $(b,bsolo checkproof).  Supported by the bsolo and pbs engines and $(b,--portfolio) \
     (pbs logs the same steps as bsolo: RUP clauses, verified solutions and objective \
     cuts); refused for galena and milp."
  in
  Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE" ~doc)

let span_file_arg =
  let doc =
    "Write engine-phase / lower-bounding / proof-flush / portfolio-member spans as a Chrome \
     trace-event JSON file (schema $(b,bsolo-spans/2)) to $(docv), loadable in Perfetto: one \
     complete (X) event per coarse phase, timed by the exact phase timer (which this flag \
     turns on), one track per solver context, timestamps on one shared epoch across \
     domains.  A run killed mid-phase leaves a valid file.  Validate with $(b,bsolo inspect \
     --spans)."
  in
  Arg.(value & opt (some string) None & info [ "trace-spans" ] ~docv:"FILE" ~doc)

let heartbeat_arg =
  let doc =
    "Append a JSONL heartbeat snapshot (per-member phase, bounds, gap, node rate, incumbent \
     provenance, counter deltas) to $(docv) every $(b,--heartbeat-every) seconds; SIGUSR1 \
     forces an immediate snapshot.  Tail live with $(b,bsolo inspect --live)."
  in
  Arg.(value & opt (some string) None & info [ "heartbeat" ] ~docv:"FILE" ~doc)

let heartbeat_every_arg =
  let doc =
    "Tick period of the live monitor in seconds (heartbeat snapshots, $(b,--metrics) \
     rewrites, $(b,/events) frames); at least 0.01."
  in
  Arg.(value & opt float 1.0 & info [ "heartbeat-every" ] ~docv:"SECONDS" ~doc)

let metrics_arg =
  let doc =
    "Write the counter/gauge/histogram registry in Prometheus text exposition format to \
     $(docv) (atomically, before the solve, on every $(b,--heartbeat-every) tick and at \
     exit) — for the node_exporter textfile collector or any file scraper."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let record_arg =
  let doc =
    "Record the complete search — decisions, backjumps, lower-bound evaluations, prunes with \
     blame, learned constraints, incumbents, imports, restarts and the final fin — to \
     $(docv) as JSON lines (schema $(b,bsolo-trace/2), see docs/FORMATS.md): a header line, \
     then one line per event.  Analyse with $(b,bsolo inspect forensics) or \
     $(b,bsolo inspect --trace), re-execute and cross-check with $(b,bsolo replay).  With \
     $(b,--portfolio), each member records a .part file and the final file is stitched from \
     them like a portfolio proof log."
  in
  Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)

let record_ring_arg =
  let doc =
    "With $(b,--record): keep only the last $(docv) events in a bounded in-memory ring, \
     written out at close (also from the signal handlers), so an arbitrarily long run leaves \
     a small recording of its final moments.  Each retained event holds its rendered line, \
     about 85 bytes.  At most 16777216 (2^24) events.  A ring \
     recording supports forensics but not $(b,bsolo replay) — the dropped prefix makes the \
     decision sequence incomplete."
  in
  Arg.(value & opt (some int) None & info [ "record-ring" ] ~docv:"N" ~doc)

let listen_arg =
  let doc =
    "Serve live observability over HTTP on $(docv) (e.g. 127.0.0.1:8080; port 0 picks a \
     free port, reported on a $(b,c obsd:) line): $(b,/metrics) Prometheus exposition \
     (byte-identical to the $(b,--metrics) textfile), $(b,/status) in-progress run report \
     JSON, $(b,/healthz) liveness, $(b,/events) SSE heartbeat/incumbent stream.  Watch \
     with $(b,bsolo top --connect).  Bind 127.0.0.1 unless the endpoint really must be \
     reachable remotely — the server is unauthenticated."
  in
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc)


let sinks_term =
  let make verbose stats json_file proof_file span_file heartbeat_file heartbeat_every
      metrics_file record_file record_ring listen =
    { verbosity = List.length verbose; stats; json_file; proof_file; span_file;
      heartbeat_file; heartbeat_every; metrics_file; record_file; record_ring; listen }
  in
  Term.(
    const make $ verbose_arg $ stats_arg $ json_arg $ proof_file_arg $ span_file_arg
    $ heartbeat_arg $ heartbeat_every_arg $ metrics_arg $ record_arg $ record_ring_arg
    $ listen_arg)

let term =
  let run path portfolio jobs verify (engine, options) sinks =
    solve_file ~path ~engine ~portfolio ~jobs ~verify options sinks
  in
  Term.(const run $ file_arg $ portfolio_arg $ jobs_arg $ verify_arg $ options_term $ sinks_term)

let cmd = Cmd.v (Cmd.info "solve" ~doc:"solve an OPB/CNF instance (default)") term
