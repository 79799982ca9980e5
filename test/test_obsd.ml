(* The live monitor and its embedded HTTP server: request parsing,
   endpoint behaviour over real sockets, the /metrics ≡ textfile
   byte-equality guarantee, slow-client drop accounting, concurrent
   scrapers, and one snapshot stream feeding the heartbeat file and
   /events alike.  Every monitor test binds 127.0.0.1 port 0. *)

module T = Telemetry

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let tmp_file suffix =
  let path = Filename.temp_file "bsolo-obsd" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* --- request parsing --------------------------------------------------------- *)

let parse_ok () =
  (match Obsd.Http.parse_request "GET /metrics HTTP/1.1\r\nHost: x\r\n" with
  | Ok r ->
    Alcotest.(check string) "meth" "GET" r.Obsd.Http.meth;
    Alcotest.(check string) "path" "/metrics" r.path;
    Alcotest.(check string) "version" "HTTP/1.1" r.version
  | Error s -> Alcotest.failf "rejected with %d" s);
  (match Obsd.Http.parse_request "GET /status?pretty=1 HTTP/1.0" with
  | Ok r -> Alcotest.(check string) "query stripped" "/status" r.path
  | Error s -> Alcotest.failf "1.0 rejected with %d" s)

let parse_errors () =
  let status head =
    match Obsd.Http.parse_request head with Ok _ -> 200 | Error s -> s
  in
  Alcotest.(check int) "POST is 405" 405 (status "POST /metrics HTTP/1.1");
  Alcotest.(check int) "DELETE is 405" 405 (status "DELETE /x HTTP/1.1");
  Alcotest.(check int) "relative target is 400" 400 (status "GET metrics HTTP/1.1");
  Alcotest.(check int) "garbage method is 400" 400 (status "ge!t / HTTP/1.1");
  Alcotest.(check int) "missing version is 400" 400 (status "GET /metrics");
  Alcotest.(check int) "extra fields are 400" 400 (status "GET /a b HTTP/1.1");
  Alcotest.(check int) "empty head is 400" 400 (status "");
  Alcotest.(check int) "future version is 505" 505 (status "GET /x HTTP/2.0");
  Alcotest.(check int) "ancient version is 505" 505 (status "GET /x HTTP/0.9");
  Alcotest.(check int) "non-HTTP protocol is 400" 400 (status "GET /x GOPHER/1.1");
  Alcotest.(check int) "oversized target is 414" 414
    (status ("GET /" ^ String.make 4096 'a' ^ " HTTP/1.1"))

let sse_frame_format () =
  Alcotest.(check string) "single-line data" "event: heartbeat\ndata: {\"t\":1}\n\n"
    (Obsd.Http.sse_frame ~event:"heartbeat" ~data:"{\"t\":1}");
  Alcotest.(check string) "multi-line data splits into data: fields"
    "event: log\ndata: a\ndata: b\n\n"
    (Obsd.Http.sse_frame ~event:"log" ~data:"a\nb")

let parse_addr () =
  (match Obsd.Client.parse_addr "127.0.0.1:8080" with
  | Ok (h, p) ->
    Alcotest.(check string) "host" "127.0.0.1" h;
    Alcotest.(check int) "port" 8080 p
  | Error e -> Alcotest.fail e);
  (match Obsd.Client.parse_addr ":9" with
  | Ok (h, p) ->
    Alcotest.(check string) "empty host is loopback" "127.0.0.1" h;
    Alcotest.(check int) "port" 9 p
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no colon rejected" true
    (Result.is_error (Obsd.Client.parse_addr "localhost"));
  Alcotest.(check bool) "bad port rejected" true
    (Result.is_error (Obsd.Client.parse_addr "h:x"));
  Alcotest.(check bool) "huge port rejected" true
    (Result.is_error (Obsd.Client.parse_addr "h:70000"))

(* --- the monitor over real sockets -------------------------------------------- *)

let stub ?(metrics = fun () -> "") ?(status = fun _ _ -> "{}") () =
  { Obsd.Monitor.metrics; status }

(* A 60 s cadence keeps periodic ticks out of a sub-second test. *)
let with_monitor ?(every = 60.) ?heartbeat ?metrics_file ?registry render f =
  let m =
    Obsd.Monitor.start ~listen:("127.0.0.1", 0) ?heartbeat ?metrics_file ?registry ~render
      ~every ()
  in
  Fun.protect ~finally:(fun () -> Obsd.Monitor.stop m) (fun () -> f m)

let port m = Option.get (Obsd.Monitor.port m)

let get m path =
  match Obsd.Client.get ~host:"127.0.0.1" ~port:(port m) path with
  | Ok (status, body) -> status, body
  | Error e -> Alcotest.failf "GET %s: %s" path e

(* A cell registered in the member table for the duration of [f]. *)
let with_cell ?(registry = T.Registry.create ()) ?prefix name f =
  let c = T.Profile.Cell.make ~observed:true ~name () in
  T.Profile.register ?prefix c registry;
  Fun.protect ~finally:(fun () -> T.Profile.unregister c) (fun () -> f c)

(* Collect every /events frame on another domain until the end frame. *)
let subscribe m =
  let events = Atomic.make [] in
  let reader =
    Domain.spawn (fun () ->
        Obsd.Client.events ~host:"127.0.0.1" ~port:(port m)
          ~on_event:(fun ~event ~data ->
            Atomic.set events ((event, data) :: Atomic.get events);
            event <> "end")
          ())
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (Obsd.Monitor.stats m).served < 1 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  events, reader

let wait_until ?(seconds = 5.) what cond =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

let endpoints_roundtrip () =
  with_monitor
    (stub
       ~metrics:(fun () -> "# HELP x solver counter x\n# TYPE x counter\nx 1\n")
       ~status:(fun _ _ -> "{\"schema\":\"bsolo-status/1\"}")
       ())
  @@ fun m ->
  let st, body = get m "/metrics" in
  Alcotest.(check int) "metrics 200" 200 st;
  Alcotest.(check bool) "metrics body" true (contains body "x 1");
  let st, body = get m "/status" in
  Alcotest.(check int) "status 200" 200 st;
  Alcotest.(check bool) "status body" true (contains body "bsolo-status/1");
  let st, _ = get m "/healthz" in
  Alcotest.(check int) "healthz 200 while the loop answers" 200 st;
  let st, _ = get m "/nope" in
  Alcotest.(check int) "unknown path 404" 404 st;
  Alcotest.(check bool) "requests counted" true ((Obsd.Monitor.stats m).served >= 4)

(* A raw (non-Client) request exercises the error statuses end to end. *)
let raw_request m req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port m));
  let rec write off =
    if off < String.length req then
      write (off + Unix.write_substring fd req off (String.length req - off))
  in
  write 0;
  let b = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec read () =
    match Unix.read fd chunk 0 512 with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      read ()
  in
  read ()

let wire_error_statuses () =
  with_monitor (stub ())
  @@ fun m ->
  let resp = raw_request m "POST /metrics HTTP/1.1\r\n\r\n" in
  Alcotest.(check bool) "405 on the wire" true (contains resp "405 Method Not Allowed");
  let resp = raw_request m "GET /x HTTP/3.0\r\n\r\n" in
  Alcotest.(check bool) "505 on the wire" true (contains resp "505");
  let resp = raw_request m "complete garbage\r\n\r\n" in
  Alcotest.(check bool) "400 on the wire" true (contains resp "400 Bad Request");
  let resp = raw_request m ("GET / HTTP/1.1\r\nX: " ^ String.make 9000 'y' ^ "\r\n\r\n") in
  Alcotest.(check bool) "431 on oversized head" true (contains resp "431")

(* The load-bearing equality: GET /metrics and the --metrics textfile
   come from the same production renderer over the member table, so
   their bytes match — including a live portfolio member's registry
   under its merge prefix. *)
let metrics_equals_textfile () =
  let main = T.Registry.create () in
  T.Counter.add (T.Registry.counter main "search.nodes") 42;
  T.Gauge.set (T.Registry.gauge main "lp.objective") 2.5;
  let h = T.Registry.histogram main "lb.value" in
  T.Histogram.observe h 1;
  T.Histogram.observe h 9;
  let member = T.Registry.create () in
  T.Counter.add (T.Registry.counter member "bcp.visits") 7;
  with_cell ~registry:main "main" @@ fun _ ->
  with_cell ~registry:member ~prefix:"portfolio.bsolo-lpr." "bsolo-lpr" @@ fun _ ->
  let path = tmp_file ".prom" in
  let render = Obsd.Monitor.live ~run_id:"t" ~engine:"portfolio" ~instance:"x" ~started:0. in
  with_monitor ~metrics_file:path render
  @@ fun m ->
  let st, scraped = get m "/metrics" in
  Alcotest.(check int) "200" 200 st;
  let ic = open_in_bin path in
  let file = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "scrape is byte-identical to the textfile" file scraped;
  (match T.Promtext.lint scraped with
  | Ok n -> Alcotest.(check bool) "lint-clean with samples" true (n > 0)
  | Error vs -> Alcotest.failf "lint violations: %s" (String.concat "; " vs));
  Alcotest.(check bool) "main metrics unprefixed" true (contains scraped "bsolo_search_nodes 42");
  Alcotest.(check bool) "member metrics under the merge prefix" true
    (contains scraped "bsolo_portfolio_bsolo_lpr_bcp_visits 7")

(* A subscriber that never reads: frames far beyond its bounded queue
   must be dropped and counted, never block the monitor.  A huge member
   name makes every heartbeat frame big, and a tiny receive buffer keeps
   the kernel from absorbing them. *)
let slow_client_drops () =
  with_cell (String.make 32768 'x') @@ fun _ ->
  with_monitor ~every:0.005 (stub ())
  @@ fun m ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port m));
  let req = "GET /events HTTP/1.1\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req));
  wait_until ~seconds:10. "a dropped frame" (fun () -> (Obsd.Monitor.stats m).dropped > 0)

(* SSE round trip: subscribe, receive heartbeats, an incumbent frame
   once the best bound improves, then the final end frame published by
   stop. *)
let sse_stream_roundtrip () =
  with_cell "member" @@ fun cell ->
  let m =
    Obsd.Monitor.start ~listen:("127.0.0.1", 0) ~render:(stub ()) ~every:0.05 ()
  in
  let events, reader = subscribe m in
  let count ev = List.length (List.filter (fun (e, _) -> e = ev) (Atomic.get events)) in
  wait_until "two heartbeats" (fun () -> count "heartbeat" >= 2);
  T.Profile.Cell.update_ub cell 7.;
  wait_until "the incumbent" (fun () -> count "incumbent" >= 1);
  Obsd.Monitor.stop ~final_event:("end", "{\"run_id\":\"t\"}") m;
  (match Domain.join reader with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reader failed: %s" e);
  Alcotest.(check int) "one incumbent" 1 (count "incumbent");
  Alcotest.(check int) "final end event" 1 (count "end");
  match Atomic.get events with
  | ("end", data) :: _ -> Alcotest.(check bool) "end carries run id" true (contains data "run_id")
  | _ -> Alcotest.fail "end was not the last event"

(* Concurrent scrapers against live render callbacks while the solver
   side mutates the registry: every response is a complete, parseable
   exposition — no torn or interleaved bodies. *)
let concurrent_scrapers () =
  let reg = T.Registry.create () in
  let cnt = T.Registry.counter reg "search.nodes" in
  with_monitor ~every:0.01 ~registry:reg
    (stub
       ~metrics:(fun () -> T.Promtext.render reg)
       ~status:(fun _ _ -> "{\"schema\":\"bsolo-status/1\"}")
       ())
  @@ fun m ->
  let port = port m in
  let scraper _ =
    Domain.spawn (fun () ->
        let ok = ref 0 in
        for i = 1 to 10 do
          let path = if i mod 2 = 0 then "/metrics" else "/status" in
          match Obsd.Client.get ~host:"127.0.0.1" ~port path with
          | Ok (200, body) ->
            let clean =
              if path = "/metrics" then Result.is_ok (T.Promtext.lint body)
              else contains body "bsolo-status/1"
            in
            if clean then incr ok
          | Ok _ | Error _ -> ()
        done;
        !ok)
  in
  let writer =
    Domain.spawn (fun () ->
        for _ = 1 to 2000 do
          T.Counter.incr cnt
        done)
  in
  let domains = List.init 4 scraper in
  let oks = List.map Domain.join domains in
  Domain.join writer;
  List.iteri
    (fun i ok -> Alcotest.(check int) (Printf.sprintf "scraper %d all clean" i) 10 ok)
    oks

(* One monitor feeds every consumer: the heartbeat file and the /events
   stream carry the same numbered snapshots, and a /status request
   between ticks peeks, so the file's counter deltas stay whole. *)
let one_monitor_feeds_every_consumer () =
  let reg = T.Registry.create () in
  let cnt = T.Registry.counter reg "x.events" in
  with_cell ~registry:reg "member" @@ fun _ ->
  let path = tmp_file ".hb.jsonl" in
  let heartbeat = T.Snapshot.open_file path ~run_id:"t" ~started:0. ~every:0.3 in
  let m =
    Obsd.Monitor.start ~listen:("127.0.0.1", 0) ~heartbeat ~registry:reg
      ~render:(Obsd.Monitor.live ~run_id:"t" ~engine:"bsolo" ~instance:"x" ~started:0.)
      ~every:0.3 ()
  in
  let events, reader = subscribe m in
  let heartbeats () =
    List.filter_map (fun (e, d) -> if e = "heartbeat" then Some d else None) (Atomic.get events)
  in
  wait_until "a streamed heartbeat" (fun () -> heartbeats () <> []);
  T.Counter.add cnt 5;
  let st, body = get m "/status" in
  Alcotest.(check int) "status 200" 200 st;
  Alcotest.(check bool) "status is a bsolo-status/1 document" true
    (contains body "\"schema\":\"bsolo-status/1\"");
  T.Counter.add cnt 3;
  let seen = List.length (heartbeats ()) in
  wait_until "the next tick" (fun () -> List.length (heartbeats ()) > seen);
  Obsd.Monitor.stop ~final_event:("end", "{}") m;
  (match Domain.join reader with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reader failed: %s" e);
  let lines =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
    in
    let ls = go [] in
    close_in ic;
    ls
  in
  let decode line =
    match T.Json.of_string line with
    | Ok j -> T.Snapshot.decode j
    | Error e -> Alcotest.failf "bad heartbeat line: %s" e
  in
  let file = List.filter_map (fun l -> Option.map (fun s -> s, l) (decode l)) lines in
  Alcotest.(check (list int)) "file numbers every snapshot"
    (List.init (List.length file) Fun.id)
    (List.map (fun ((s : T.Snapshot.snap), _) -> s.s_seq) file);
  let stream = List.rev (heartbeats ()) in
  let first = (Option.get (decode (List.hd stream))).s_seq in
  Alcotest.(check (list string)) "the stream carries the file's snapshots from its subscription on"
    (List.filter_map
       (fun ((s : T.Snapshot.snap), l) -> if s.s_seq >= first then Some l else None)
       file)
    stream;
  let delta ((s : T.Snapshot.snap), _) =
    Option.value ~default:0 (List.assoc_opt "x.events" s.s_deltas)
  in
  Alcotest.(check int) "the file's deltas add up across the /status request" 8
    (List.fold_left (fun acc x -> acc + delta x) 0 file)

(* A /status document names the snapshot it follows: after N heartbeats
   (the start snapshot and N - 1 forced ones, no periodic tick in a 60 s
   cadence) it carries seq N - 1, and peeking again takes no number. *)
let status_carries_last_seq () =
  let path = tmp_file ".hb.jsonl" in
  let heartbeat = T.Snapshot.open_file path ~run_id:"t" ~started:0. ~every:60. in
  let render = Obsd.Monitor.live ~run_id:"t" ~engine:"bsolo" ~instance:"x" ~started:0. in
  with_monitor ~heartbeat render @@ fun m ->
  let snapshots () =
    let ic = open_in path in
    let rec go n =
      match input_line ic with
      | l -> go (if contains l "\"seq\"" then n + 1 else n)
      | exception End_of_file -> n
    in
    let n = go 0 in
    close_in ic;
    n
  in
  let n = 4 in
  for k = 2 to n do
    Obsd.Monitor.request m;
    wait_until (Printf.sprintf "heartbeat %d" k) (fun () -> snapshots () >= k)
  done;
  let seq_of_status () =
    let st, body = get m "/status" in
    Alcotest.(check int) "status 200" 200 st;
    match T.Json.of_string body with
    | Error e -> Alcotest.failf "bad /status body: %s" e
    | Ok j -> (
      match Option.bind (T.Json.member "snapshot" j) T.Snapshot.decode with
      | Some s -> s.s_seq
      | None -> Alcotest.failf "/status without a snapshot: %s" body)
  in
  Alcotest.(check int) "heartbeats written" n (snapshots ());
  Alcotest.(check int) "/status follows the last heartbeat" (n - 1) (seq_of_status ());
  Alcotest.(check int) "a second /status takes no number" (n - 1) (seq_of_status ())

(* --- suite ------------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "http: well-formed requests parse" `Quick parse_ok;
    Alcotest.test_case "http: bad method/path/version statuses" `Quick parse_errors;
    Alcotest.test_case "http: SSE frame format" `Quick sse_frame_format;
    Alcotest.test_case "client: HOST:PORT parsing" `Quick parse_addr;
    Alcotest.test_case "server: endpoint round trip" `Quick endpoints_roundtrip;
    Alcotest.test_case "server: error statuses on the wire" `Quick wire_error_statuses;
    Alcotest.test_case "server: /metrics byte-identical to textfile" `Quick
      metrics_equals_textfile;
    Alcotest.test_case "server: slow client drops are counted" `Quick slow_client_drops;
    Alcotest.test_case "server: SSE stream round trip" `Quick sse_stream_roundtrip;
    Alcotest.test_case "server: concurrent scrapers" `Quick concurrent_scrapers;
    Alcotest.test_case "monitor: one snapshot feeds file and stream" `Quick
      one_monitor_feeds_every_consumer;
    Alcotest.test_case "monitor: /status carries the last snapshot's seq" `Quick
      status_carries_last_seq;
  ]
