(* JSONL event sink.  One event per line:

     {"t":0.004512,"ev":"decision","level":3,"var":17,"value":true}

   [t] is seconds on the process-wide shared Epoch — NOT since this sink
   was opened — so events from sinks opened at different moments (and
   spans, and heartbeats) line up on one timeline with no skew.  Search
   events reach the sink through the flight recorder, which passes the
   timestamp it stamped the event with; free-form events are stamped
   here.

   Unlike the rest of the telemetry layer, the sink is domain-safe: a
   mutex serializes every line, so portfolio workers on several domains
   can share one trace file without interleaving corrupt lines.  The lock
   is uncontended (a single store) in the common single-domain case. *)

type sink = {
  oc : out_channel;
  buf : Buffer.t;
  lock : Mutex.t;
  mutable nevents : int;
}

type t = { mutable sink : sink option }

let disabled () = { sink = None }

let open_file path =
  (* Fix the shared epoch no later than sink creation, so [t] offsets
     start near zero for the first sink of the process. *)
  ignore (Epoch.t0 ());
  let oc = open_out path in
  { sink = Some { oc; buf = Buffer.create 256; lock = Mutex.create (); nevents = 0 } }

let enabled t = t.sink <> None
let events t = match t.sink with None -> 0 | Some s -> s.nevents

let close t =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    close_out s.oc;
    Mutex.unlock s.lock;
    t.sink <- None

let event ?t:at t name fields =
  match t.sink with
  | None -> ()
  | Some s ->
    let at = match at with Some at -> at | None -> Epoch.now () in
    Mutex.lock s.lock;
    Buffer.clear s.buf;
    Printf.bprintf s.buf "{\"t\":%.6f,\"ev\":" at;
    Json.escape_to s.buf name;
    List.iter
      (fun (k, v) ->
        Buffer.add_char s.buf ',';
        Json.escape_to s.buf k;
        Buffer.add_char s.buf ':';
        Json.to_buffer s.buf v)
      fields;
    Buffer.add_string s.buf "}\n";
    Buffer.output_buffer s.oc s.buf;
    s.nevents <- s.nevents + 1;
    (* Periodic flush keeps a trace readable after an abnormal exit
       (signal, kill, crash) at the cost of one syscall per 64 events; the
       last partial line, if any, is skipped by the inspect reader. *)
    if s.nevents land 63 = 0 then Stdlib.flush s.oc;
    Mutex.unlock s.lock
