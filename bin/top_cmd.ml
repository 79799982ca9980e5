open Cmdliner

(* `bsolo top --connect HOST:PORT`: subscribe to the /events SSE stream
   of a --listen run and repaint the same status view `inspect --live`
   renders from a heartbeat file.  `--get PATH` instead fetches one
   endpoint and prints the body — a dependency-free curl for scripts. *)
let top_run connect get_path frames =
  let error msg =
    Printf.eprintf "bsolo top: %s\n" msg;
    2
  in
  match connect with
  | None -> error "needs --connect HOST:PORT (the address of a --listen run)"
  | Some spec -> (
    match Obsd.Client.parse_addr spec with
    | Error msg -> error msg
    | Ok (host, port) -> (
      match get_path with
      | Some path -> (
        match Obsd.Client.get ~host ~port path with
        | Ok (200, body) ->
          print_string body;
          0
        | Ok (status, body) ->
          Printf.eprintf "bsolo top: HTTP %d\n" status;
          print_string body;
          1
        | Error msg -> error msg)
      | None ->
        let seen = ref [] in
        let rendered = ref 0 in
        let finished = ref false in
        let on_event ~event ~data =
          match event with
          | "heartbeat" -> (
            match Inspect.Json.of_string data with
            | Ok j ->
              seen := j :: !seen;
              incr rendered;
              Inspect_cmd.repaint !seen;
              frames <= 0 || !rendered < frames
            | Error _ -> true)
          | "end" ->
            finished := true;
            false
          | _ -> true
        in
        match Obsd.Client.events ~host ~port ~on_event () with
        | Ok () ->
          if !rendered = 0 then error "stream ended before the first heartbeat"
          else begin
            print_endline (if !finished then "run ended." else "detached.");
            0
          end
        | Error msg -> error msg))

let cmd =
  let doc = "live status view of a running --listen solve (over its SSE stream)" in
  let connect_arg =
    let doc = "Address of the running solver's $(b,--listen) endpoint." in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let get_arg =
    let doc =
      "Fetch one endpoint path (e.g. $(b,/metrics), $(b,/status), $(b,/healthz)) and \
       print the response body instead of streaming; exit 1 on a non-200 status."
    in
    Arg.(value & opt (some string) None & info [ "get" ] ~docv:"PATH" ~doc)
  in
  let frames_arg =
    let doc = "Detach after rendering $(docv) heartbeat frames (0 streams until the run ends)." in
    Arg.(value & opt int 0 & info [ "frames" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const top_run $ connect_arg $ get_arg $ frames_arg)

