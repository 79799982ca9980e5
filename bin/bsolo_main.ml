(* Command-line PBO solver over OPB files: the reproduction of the bsolo
   prototype, with the baselines selectable for comparison.  Each
   subcommand lives in its own module; this one groups them. *)

open Cmdliner

let cmd =
  let doc = "pseudo-Boolean optimizer with lower bounding (bsolo reproduction)" in
  let info = Cmd.info "bsolo" ~version:"1.0.0" ~doc in
  Cmd.group ~default:Solve_cmd.term info
    [ Solve_cmd.cmd; Inspect_cmd.cmd; Checkproof_cmd.cmd; Replay_cmd.cmd; Top_cmd.cmd ]

(* Backward compatibility: `bsolo FILE [flags]` predates the subcommand
   group, so a first argument that is not a command name is routed to the
   implicit `solve`. *)
let argv =
  let argv = Sys.argv in
  if Array.length argv > 1 then begin
    match argv.(1) with
    | "inspect" | "solve" | "checkproof" | "replay" | "top" -> argv
    | s when String.length s > 0 && s.[0] = '-' -> argv
    | _ -> Array.concat [ [| argv.(0); "solve" |]; Array.sub argv 1 (Array.length argv - 1) ]
  end
  else argv

(* Solve's search-event recording was `--trace FILE` before it became
   `--record FILE`.  Cmdliner would take the old spelling as an
   abbreviation of `--trace-spans` and silently write a span file
   instead, so solve refuses it. *)
let () =
  let solve =
    Array.length argv > 1
    && not (List.mem argv.(1) [ "inspect"; "checkproof"; "replay"; "top" ])
  in
  if
    solve
    && Array.exists (fun a -> a = "--trace" || String.starts_with ~prefix:"--trace=" a) argv
  then Solve_cmd.fatal "--trace was removed: use --record FILE for the search-event recording"

let () = exit (Cmd.eval' ~argv cmd)
