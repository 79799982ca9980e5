(* The live monitor: one select loop on one domain feeding every live
   consumer of a solve — the heartbeat file, the Prometheus textfile
   and, with --listen, the embedded HTTP endpoints:

     /metrics  Prometheus exposition from [render.metrics] (the closure
               the textfile uses, so the two outputs are byte-identical)
     /status   [render.status] around a peek of the one collector,
               carrying the [seq] of the last snapshot taken
     /healthz  200 whenever the loop answers
     /events   Server-Sent Events stream of the snapshots and incumbent
               events

   Each tick takes one snapshot, numbers it and hands it to every
   consumer.  Forced snapshots (SIGUSR1) and /status peek, so the next
   periodic tick's deltas still cover one whole interval.

   Everything here runs on the monitor's domain, so nothing is locked.
   Back-pressure: a slow or stuck scraper must never slow the solver.
   The solver never waits on this loop, all socket I/O is non-blocking,
   and when a subscriber's bounded queue is full the new frame is
   dropped and counted. *)

module Json = Telemetry.Json
module Snapshot = Telemetry.Snapshot

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* request head accumulates here *)
  outq : string Queue.t;  (* pending output chunks, oldest first *)
  mutable sent : int;  (* bytes of the front chunk already written *)
  mutable queued : int;  (* frames waiting in [outq] (SSE bound) *)
  mutable sse : bool;  (* streaming /events: keep open after writes *)
  mutable close_after_flush : bool;
  mutable dead : bool;
}

type stats = { clients : int; served : int; dropped : int }
type render = { metrics : unit -> string; status : stats -> Snapshot.snap -> string }

type t = {
  render : render;
  every : float;
  coll : Snapshot.collector;
  heartbeat : Snapshot.t option;
  metrics_file : string option;
  sock : Unix.file_descr option;
  port : int option;
  mutable clients : client list;
  mutable served : int;
  mutable dropped : int;
  mutable seq : int;
  mutable best : float option;  (* last best published as an incumbent frame *)
  requested : bool Atomic.t;  (* out-of-band snapshot (SIGUSR1) *)
  final : (string * string) option Atomic.t;
  stopping : bool Atomic.t;
  mutable loop : unit Domain.t option;
}

(* Head size cap (431 beyond this) and SSE queue bound.  64 frames is
   ~13 s of heartbeats at a 0.2 s cadence — enough for a GC pause on
   the reader, not enough to hoard memory for a stuck one. *)
let max_head = 8192
let max_queue = 64
let quantum = 0.05

let port t = t.port
let request t = Atomic.set t.requested true

(* Racy from another domain, but every field read is a whole word. *)
let stats t : stats = { clients = List.length t.clients; served = t.served; dropped = t.dropped }

let live ~run_id ~engine ~instance ~started =
  let metrics () =
    Telemetry.Promtext.render_sources
      (List.map
         (fun (e : Telemetry.Profile.entry) -> e.prefix, e.registry)
         (Telemetry.Profile.live ()))
  in
  let status (st : stats) snap =
    Json.to_string
      (Json.Obj
         [
           "schema", Json.String "bsolo-status/1";
           "run_id", Json.String run_id;
           "engine", Json.String engine;
           "instance", Json.String instance;
           "started", Json.Float started;
           "uptime", Json.Float (Unix.gettimeofday () -. started);
           "snapshot", Snapshot.encode snap;
           ( "server",
             Json.Obj
               [
                 "clients", Json.Int st.clients;
                 "served", Json.Int st.served;
                 "dropped_frames", Json.Int st.dropped;
               ] );
         ])
  in
  { metrics; status }

(* {1 Snapshots} *)

let publish t ~event ~data =
  let frame = Http.sse_frame ~event ~data in
  List.iter
    (fun c ->
      if c.sse && not c.dead then
        if c.queued >= max_queue then t.dropped <- t.dropped + 1
        else begin
          Queue.add frame c.outq;
          c.queued <- c.queued + 1
        end)
    t.clients

let write_metrics t =
  Option.iter (fun f -> Telemetry.Promtext.write_file f (t.render.metrics ())) t.metrics_file

(* One snapshot, one sequence number, every consumer. *)
let snapshot t ~advance =
  let s = (if advance then Snapshot.take else Snapshot.peek) t.coll in
  let s = { s with Snapshot.s_seq = t.seq } in
  t.seq <- t.seq + 1;
  Option.iter (fun hb -> Snapshot.write hb s) t.heartbeat;
  if t.sock <> None then begin
    publish t ~event:"heartbeat" ~data:(Json.to_string (Snapshot.encode s));
    match s.Snapshot.s_best with
    | Some (cost, from) when t.best <> Some cost ->
      t.best <- Some cost;
      publish t ~event:"incumbent"
        ~data:
          (Json.to_string
             (Json.Obj
                [
                  "cost", Json.Float cost;
                  "from", Json.String from;
                  "t", Json.Float s.Snapshot.s_t;
                ]))
    | _ -> ()
  end

let tick t ~advance =
  snapshot t ~advance;
  try write_metrics t with Sys_error _ -> ()

(* {1 HTTP} *)

let close_client t c =
  if not c.dead then begin
    c.dead <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  end;
  t.clients <- List.filter (fun c' -> c' != c) t.clients

let respond t c body =
  Queue.add body c.outq;
  c.close_after_flush <- true;
  t.served <- t.served + 1

let route t c (req : Http.request) =
  let ok content_type body =
    respond t c (Http.response ~headers:[ "Content-Type", content_type ] ~status:200 body)
  in
  match req.path with
  | "/metrics" -> ok "text/plain; version=0.0.4; charset=utf-8" (t.render.metrics ())
  | "/status" ->
    (* a peek, numbered as the last snapshot it follows *)
    let snap = { (Snapshot.peek t.coll) with Snapshot.s_seq = max 0 (t.seq - 1) } in
    ok "application/json" (t.render.status (stats t) snap)
  | "/healthz" -> ok "text/plain; charset=utf-8" "ok\n"
  | "/events" ->
    Queue.add Http.sse_header c.outq;
    c.sse <- true;
    t.served <- t.served + 1
  | _ -> respond t c (Http.error_response 404)

let find_head_end buf =
  let s = Buffer.contents buf in
  let n = String.length s in
  let rec scan i =
    if i + 1 >= n then None
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some i
    else if i + 3 < n && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
            && s.[i + 3] = '\n'
    then Some i
    else scan (i + 1)
  in
  Option.map (fun i -> String.sub s 0 i) (scan 0)

let on_readable t c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.fd chunk 0 4096 with
  | 0 -> close_client t c
  | _ when c.sse -> () (* streaming clients only ever hang up *)
  | n ->
    Buffer.add_subbytes c.inbuf chunk 0 n;
    if Buffer.length c.inbuf > max_head then respond t c (Http.error_response 431)
    else (
      match find_head_end c.inbuf with
      | None -> ()
      | Some head -> (
        match Http.parse_request head with
        | Ok req -> route t c req
        | Error status -> respond t c (Http.error_response status)))
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_client t c

let on_writable t c =
  match Queue.peek_opt c.outq with
  | None -> if c.close_after_flush then close_client t c
  | Some chunk -> (
    let len = String.length chunk - c.sent in
    match Unix.write_substring c.fd chunk c.sent len with
    | n ->
      if n = len then begin
        c.sent <- 0;
        ignore (Queue.pop c.outq);
        if c.sse && c.queued > 0 then c.queued <- c.queued - 1;
        if Queue.is_empty c.outq && c.close_after_flush then close_client t c
      end
      else c.sent <- c.sent + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_client t c)

let rec accept_clients t sock =
  match Unix.accept ~cloexec:true sock with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.clients <-
      {
        fd;
        inbuf = Buffer.create 256;
        outq = Queue.create ();
        sent = 0;
        queued = 0;
        sse = false;
        close_after_flush = false;
        dead = false;
      }
      :: t.clients;
    accept_clients t sock
  | exception Unix.Unix_error _ -> ()

let pending c = (not c.dead) && not (Queue.is_empty c.outq)

(* One select over the listening socket (while [accepting]) and the
   clients; with no socket it only waits out [timeout]. *)
let serve t ~accepting ~timeout =
  let clients = t.clients in
  let listening = if accepting then Option.to_list t.sock else [] in
  let rd = listening @ List.filter_map (fun c -> if c.dead then None else Some c.fd) clients in
  let wr = List.filter_map (fun c -> if pending c then Some c.fd else None) clients in
  match Unix.select rd wr [] timeout with
  | rd_ok, wr_ok, _ ->
    List.iter (fun s -> if List.mem s rd_ok then accept_clients t s) listening;
    List.iter (fun c -> if (not c.dead) && List.mem c.fd wr_ok then on_writable t c) clients;
    List.iter (fun c -> if (not c.dead) && List.mem c.fd rd_ok then on_readable t c) clients
  | exception Unix.Unix_error ((EINTR | EBADF), _, _) -> ()

(* {1 The loop} *)

let run t =
  let next = ref (Telemetry.Epoch.now () +. t.every) in
  let drain_until = ref None in
  let running = ref true in
  while !running do
    (match !drain_until with
    | Some _ -> ()
    | None when Atomic.get t.stopping ->
      tick t ~advance:true;
      Option.iter Snapshot.close t.heartbeat;
      Option.iter (fun (event, data) -> publish t ~event ~data) (Atomic.get t.final);
      (* Grace window to flush pending responses and final frames to
         connected clients before tearing the sockets down. *)
      drain_until := Some (Unix.gettimeofday () +. 0.5)
    | None ->
      if Atomic.exchange t.requested false then tick t ~advance:false;
      let now = Telemetry.Epoch.now () in
      if now >= !next then begin
        tick t ~advance:true;
        next := if !next +. t.every > now then !next +. t.every else now +. t.every
      end);
    match !drain_until with
    | Some dl when Unix.gettimeofday () > dl || not (List.exists pending t.clients) ->
      running := false
    | Some _ -> serve t ~accepting:false ~timeout:quantum
    | None ->
      serve t ~accepting:true
        ~timeout:(Float.max 0. (Float.min quantum (!next -. Telemetry.Epoch.now ())))
  done;
  List.iter (fun c -> close_client t c) t.clients;
  Option.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) t.sock

let bind (host, port) =
  (* A dead SSE client must surface as EPIPE on write, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith (Printf.sprintf "obsd: cannot resolve host %S" host))
  in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (addr, port));
     Unix.listen sock 16;
     Unix.set_nonblock sock
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, p) -> sock, p
  | _ -> sock, port

let start ?listen ?heartbeat ?metrics_file ?registry ~render ~every () =
  let bound = Option.map bind listen in
  let t =
    {
      render;
      every;
      coll = Snapshot.collector ?registry ();
      heartbeat;
      metrics_file;
      sock = Option.map fst bound;
      port = Option.map snd bound;
      clients = [];
      served = 0;
      dropped = 0;
      seq = 0;
      best = None;
      requested = Atomic.make false;
      final = Atomic.make None;
      stopping = Atomic.make false;
      loop = None;
    }
  in
  (* The first snapshot, before any solving: even an instant run gets a
     baseline record, and an unwritable textfile fails here. *)
  (try
     snapshot t ~advance:true;
     write_metrics t
   with e ->
     Option.iter Unix.close t.sock;
     raise e);
  t.loop <-
    Some
      (Domain.spawn (fun () ->
           (* The signal handlers stop this monitor and join its domain,
              so they must run on another one: a domain that blocks a
              signal never runs its OCaml handler. *)
           (try
              ignore
                (Unix.sigprocmask Unix.SIG_BLOCK
                   [ Sys.sigint; Sys.sigterm; Sys.sighup; Sys.sigusr1 ])
            with Invalid_argument _ | Unix.Unix_error _ -> ());
           run t));
  t

let stop ?final_event t =
  match t.loop with
  | None -> ()
  | Some d ->
    t.loop <- None;
    Atomic.set t.final final_event;
    Atomic.set t.stopping true;
    Domain.join d
