(* `bsolo checkproof`: replay a --proof log against its instance with
   exact arithmetic. *)

open Cmdliner

let checkproof_run problem_path proof_path =
  let error msg =
    Printf.eprintf "bsolo checkproof: %s\n" msg;
    print_string "s NOT VERIFIED\n";
    2
  in
  match Solve_cmd.parse problem_path with
  | exception (Pbo.Opb.Parse_error msg | Pbo.Dimacs.Parse_error msg) ->
    error ("parse error: " ^ msg)
  | exception Sys_error msg -> error msg
  | problem -> (
    let t0 = Unix.gettimeofday () in
    match Proof.Check.check_file problem proof_path with
    | exception Sys_error msg -> error msg
    | Error msg ->
      Printf.printf "c %s\n" msg;
      print_string "s NOT VERIFIED\n";
      1
    | Ok s ->
      let check_s = Unix.gettimeofday () -. t0 in
      Printf.printf
        "c proof: %d steps (%d rup, %d bound, %d farkas, %d solutions, %d cuts)\n"
        s.Proof.Check.steps s.rup s.bound s.farkas s.solutions s.cuts;
      Printf.printf "c check: %.3f s, %.1f us/step\n" check_s
        (check_s *. 1e6 /. float_of_int (max 1 s.steps));
      (match s.sections with
      | [] | [ "" ] -> ()
      | names -> Printf.printf "c sections: %s\n" (String.concat " " names));
      Printf.printf "s VERIFIED %s\n" s.verdict;
      0)

let cmd =
  let doc = "replay a --proof log against its instance with exact arithmetic" in
  let problem_arg =
    let doc = "OPB/CNF instance the proof was produced from." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROBLEM" ~doc)
  in
  let proof_arg =
    let doc = "Proof log written by $(b,--proof)." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"PROOF" ~doc)
  in
  Cmd.v (Cmd.info "checkproof" ~doc) Term.(const checkproof_run $ problem_arg $ proof_arg)

