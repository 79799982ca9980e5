(* `bsolo replay`: re-execute a flight recording and cross-check every
   event. *)

open Cmdliner

let replay_run problem_path rec_path check proof_out =
  let error msg =
    Printf.eprintf "bsolo replay: %s\n" msg;
    2
  in
  match Solve_cmd.parse problem_path with
  | exception (Pbo.Opb.Parse_error msg | Pbo.Dimacs.Parse_error msg) ->
    error ("parse error: " ^ msg)
  | exception Sys_error msg -> error msg
  | problem -> (
    match Telemetry.Recorder.read_file rec_path with
    | Error msg -> error msg
    | Ok rc -> (
      if rc.Telemetry.Recorder.r_truncated then
        print_endline "c recording has a torn tail: replaying the surviving prefix";
      match Bsolo.Replay.run ?proof_out problem rc with
      | Error msg -> error msg
      | Ok rep ->
        Printf.printf "c replayed outcome: %s\n"
          (Format.asprintf "%a" Bsolo.Outcome.pp rep.Bsolo.Replay.outcome);
        let proof_ok =
          match proof_out with
          | None -> true
          | Some p -> (
            match Proof.Check.check_file problem p with
            | exception Sys_error msg ->
              Printf.printf "c regenerated proof: NOT VERIFIED (%s)\n" msg;
              false
            | Error msg ->
              Printf.printf "c regenerated proof: NOT VERIFIED (%s)\n" msg;
              false
            | Ok s ->
              Printf.printf "c regenerated proof: VERIFIED %s (%d steps)\n"
                s.Proof.Check.verdict s.Proof.Check.steps;
              true)
        in
        (match rep.mismatch with
        | Some m ->
          Printf.printf "c mismatch at event %d/%d:\nc   recorded: %s\nc   replayed: %s\n"
            m.Bsolo.Replay.at rep.total m.expected m.got;
          print_string "s REPLAY MISMATCH\n";
          1
        | None ->
          Printf.printf "c replay: %d/%d recorded events matched\n" rep.checked rep.total;
          if not proof_ok then begin
            print_string "s REPLAY MISMATCH\n";
            1
          end
          else if check && (rep.checked < rep.total || not rep.complete) then begin
            (* --check demands the full event stream; a torn tail, a
               missing fin or an unreached suffix replays fine but proves
               less. *)
            print_string "s REPLAY INCOMPLETE\n";
            1
          end
          else begin
            print_string "s REPLAY OK\n";
            0
          end)))

let cmd =
  let doc =
    "re-execute a --record flight recording deterministically and cross-check every event"
  in
  let problem_arg =
    let doc = "OPB/CNF instance the recording was produced from." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROBLEM" ~doc)
  in
  let rec_arg =
    let doc =
      "Flight recording ($(b,bsolo-trace/2) JSON lines) written by $(b,--record) (not \
       $(b,--record-ring)) with $(b,--engine) bsolo, pbs or galena."
    in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"RECORDING" ~doc)
  in
  let check_arg =
    let doc =
      "Exit 1 unless the replay matches the complete recording: every recorded event \
       reproduced in order with identical payloads, ending in the recorded $(b,fin), no torn \
       tail."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let proof_arg =
    let doc =
      "For a recording made with $(b,--proof): keep the replay's regenerated proof log at \
       $(docv) and re-check it with exact arithmetic."
    in
    Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const replay_run $ problem_arg $ rec_arg $ check_arg $ proof_arg)

