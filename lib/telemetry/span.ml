(* Cross-domain span tracing in Chrome trace-event JSON (loadable in
   Perfetto / chrome://tracing).  A span is one complete ("X") event
   written when it ends, with its start and duration as the caller
   measured them — for engine phases, the exact timer's own entry and
   exit readings.  Timestamps are on the process-wide shared Epoch, so
   spans emitted by different portfolio domains land on one consistent
   timeline — one track ("tid") per solver context.

   The file is a streamed JSON array of event objects, one per line:

     [
     {"name":"lower_bound","cat":"phase","ph":"X","ts":1234.5,"dur":66.5,"pid":7,"tid":1},
     {"name":"simplex","cat":"phase","ph":"X","ts":1240.0,"dur":50.0,"pid":7,"tid":1}
     ]

   An inner span ends first, so it is written first.  [ts] is
   microseconds since Epoch.t0.  A span still running when the process
   dies is simply absent, and a crash loses at most the closing bracket,
   which the inspect loader repairs.  A disabled sink costs
   one branch per call site; an enabled sink serializes writers with a
   mutex. *)

type sink = {
  oc : out_channel;
  buf : Buffer.t;
  lock : Mutex.t;
  pid : int;
  mutable first : bool;  (* no comma before the first event *)
  mutable nevents : int;
  mutable dropped : int;  (* X events beyond [max_events] *)
  max_events : int;
}

type t = { mutable sink : sink option }

let disabled () = { sink = None }
let default_max_events = 1_000_000

let open_file ?(max_events = default_max_events) path =
  let oc = open_out path in
  output_string oc "[\n";
  {
    sink =
      Some
        {
          oc;
          buf = Buffer.create 256;
          lock = Mutex.create ();
          pid = Unix.getpid ();
          first = true;
          nevents = 0;
          dropped = 0;
          max_events;
        };
  }

let enabled t = t.sink <> None

(* One raw event; the caller holds the lock and formats [fields]
   (everything between the braces).  The comma discipline and the line
   breaks live here. *)
let emit s fields =
  Buffer.clear s.buf;
  if s.first then s.first <- false else Buffer.add_string s.buf ",\n";
  Json.to_buffer s.buf (Json.Obj fields);
  Buffer.output_buffer s.oc s.buf;
  s.nevents <- s.nevents + 1;
  if s.nevents land 63 = 0 then Stdlib.flush s.oc

let meta t ~track ~name args =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    emit s
      [
        "ph", Json.String "M";
        "name", Json.String name;
        "pid", Json.Int s.pid;
        "tid", Json.Int track;
        "args", Json.Obj args;
      ];
    Mutex.unlock s.lock

let header t ~run_id ~started =
  meta t ~track:0 ~name:"bsolo_run"
    [
      "schema", Json.String "bsolo-spans/2";
      "run_id", Json.String run_id;
      "started", Json.Float started;
      "epoch", Json.Float (Epoch.t0 ());
    ];
  meta t ~track:0 ~name:"process_name" [ "name", Json.String "bsolo" ]

let name_track t ~track name = meta t ~track ~name:"thread_name" [ "name", Json.String name ]

let complete ?(cat = "phase") t ~track ~name ~start ~stop =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    if s.nevents >= s.max_events then s.dropped <- s.dropped + 1
    else
      emit s
        [
          "name", Json.String name;
          "cat", Json.String cat;
          "ph", Json.String "X";
          "ts", Json.Float ((start -. Epoch.t0 ()) *. 1e6);
          "dur", Json.Float ((stop -. start) *. 1e6);
          "pid", Json.Int s.pid;
          "tid", Json.Int track;
        ];
    Mutex.unlock s.lock

let close t =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    if s.dropped > 0 then
      emit s
        [
          "ph", Json.String "M";
          "name", Json.String "bsolo_dropped_events";
          "pid", Json.Int s.pid;
          "tid", Json.Int 0;
          "args", Json.Obj [ "dropped", Json.Int s.dropped ];
        ];
    output_string s.oc "\n]\n";
    close_out s.oc;
    Mutex.unlock s.lock;
    t.sink <- None
