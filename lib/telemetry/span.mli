(** Cross-domain span tracing to Chrome trace-event JSON.

    A span is one complete (["ph":"X"]) event, written when it ends,
    with the start and stop times its caller read: the exact {!Timer}
    writes one per coarse phase from its own entry and exit readings.
    Timestamps are microseconds on the process-wide {!Epoch}, so spans
    from every portfolio domain merge on one timeline.  The output is a
    streamed JSON array loadable in Perfetto or chrome://tracing; one
    track ("tid") per solver context, named via {!name_track}.  There are
    no begin/end pairs, ids or parents: nesting is interval containment,
    so a file cut short by a signal is as well nested as a finished one
    (a span still running is just absent).

    An event cap (default one million) bounds the file on pathological
    runs: beyond it X events are counted as dropped, never silently —
    {!close} writes the count in a [bsolo_dropped_events] metadata
    record.  Metadata records are never dropped.

    Domain-safety: a sink may be shared across domains — a mutex
    serializes events.  A disabled sink costs one branch per call. *)

type t

val disabled : unit -> t

val open_file : ?max_events:int -> string -> t
(** [max_events] bounds the file: once that many events (metadata
    included) are written, further X events are dropped and counted.
    Metadata is never dropped. *)

val enabled : t -> bool

val header : t -> run_id:string -> started:float -> unit
(** Emit the run-correlation metadata record (schema [bsolo-spans/2],
    run id, absolute start time, epoch zero) plus the process-name
    record. *)

val name_track : t -> track:int -> string -> unit
(** Label a track; shown as the thread name in Perfetto. *)

val complete : ?cat:string -> t -> track:int -> name:string -> start:float -> stop:float -> unit
(** One complete ("X") event for a span that ran from [start] to [stop],
    both [Unix.gettimeofday] readings.  [cat] defaults to ["phase"]. *)

val close : t -> unit
(** Write the dropped-events record (if any) and the closing bracket,
    close the file, disable the sink.  Idempotent. *)
