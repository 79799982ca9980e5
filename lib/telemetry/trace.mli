(** JSONL event sink.

    One event per line, e.g.
    [{"t":0.004512,"ev":"decision","level":3,"var":17,"value":true}];
    ["t"] is seconds on the process-wide shared {!Epoch} (fixed at the
    first sink's creation), so sinks opened at different moments — and
    span / heartbeat artifacts — share one timeline.  The sink flushes
    every 64 events, keeping traces parseable (minus at most one partial
    trailing line) after an abnormal exit.

    Search events are not emitted here: the flight recorder
    ({!Recorder.tee}) renders each event it records onto a sink.  What
    remains is free-form {!event}, used for the trace header and the
    portfolio scheduling lines.

    Domain-safety: unlike the rest of the telemetry layer, a trace sink
    MAY be shared across domains — a mutex serializes each emitted line,
    so parallel portfolio workers writing to one file never interleave
    corrupt lines.  (Event order across domains is wall-clock arrival
    order, not per-worker program order.) *)

type t

val disabled : unit -> t

val open_file : string -> t
(** Raises [Sys_error] if the file cannot be created. *)

val enabled : t -> bool

val events : t -> int
(** Events written so far. *)

val close : t -> unit
(** Flush and close the file, and disable the sink (idempotent). *)

val event : ?t:float -> t -> string -> (string * Json.t) list -> unit
(** [event t name fields] writes [{"t":..,"ev":name,..}], with ["t"]
    printed to the microsecond.  [?t] is the event's time in seconds on
    the shared {!Epoch} (default: now).  A disabled sink costs one
    branch. *)
