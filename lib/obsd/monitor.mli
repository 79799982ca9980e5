(** The live monitor: one domain serving every live consumer of a solve.

    Each tick takes one snapshot from one collector and gives it the
    next sequence number.  That same snapshot goes to the heartbeat
    file, to the [/events] subscribers (plus an [incumbent] frame when
    the best bound improved) and to the Prometheus textfile.  With
    [listen], the same loop serves the embedded HTTP/1.1 endpoints:

    {v
    GET /metrics   Prometheus exposition (byte-identical to the textfile)
    GET /status    bsolo-status/1 JSON around a peek of the collector
    GET /healthz   200 whenever the loop answers
    GET /events    SSE stream of the snapshots + incumbent events
    v}

    The loop selects on its sockets (none without [listen]) with a
    timeout of the earlier of the next tick, scheduled on the
    {!Telemetry.Epoch} clock, and a 50 ms quantum that picks up
    {!request} and {!stop}.  Every snapshot, render and socket write
    happens on that one domain, so the solver never waits on it, and a
    slow subscriber has frames dropped from its bounded queue (counted
    in {!stats}).  The render callbacks run on the monitor's domain and
    take racy-but-tear-free reads of cells and registries. *)

type stats = { clients : int; served : int; dropped : int }
(** Connected clients, requests served and SSE frames dropped on full
    client queues since start. *)

type render = {
  metrics : unit -> string;  (** [/metrics] and the textfile *)
  status : stats -> Telemetry.Snapshot.snap -> string;
      (** [/status], around a {!Telemetry.Snapshot.peek}: its rates and
          deltas cover the time since the last periodic tick, and its
          [seq] is the last snapshot's, the heartbeat and [/events]
          record the document follows *)
}

val live : run_id:string -> engine:string -> instance:string -> started:float -> render
(** The production renderers.  [metrics] is the exposition of every
    {!Telemetry.Profile.live} entry's registry under its prefix, in
    registration order.  [status] is the [bsolo-status/1] document: run
    id, engine, instance, [started], [uptime] (seconds since [started]),
    the snapshot and the server stats. *)

type t

val start :
  ?listen:string * int ->
  ?heartbeat:Telemetry.Snapshot.t ->
  ?metrics_file:string ->
  ?registry:Telemetry.Registry.t ->
  render:render ->
  every:float ->
  unit ->
  t
(** Bind [listen] (port 0 picks a free port; raises [Unix.Unix_error]
    if the address cannot be bound), take the first snapshot on the
    calling domain and spawn the monitor domain, which ticks every
    [every] seconds.  The first snapshot writes the first textfile and
    raises [Sys_error] if [metrics_file] cannot be written; later write
    failures are ignored.  [registry] contributes the counter deltas.
    The monitor owns [heartbeat] and closes it at {!stop}. *)

val port : t -> int option
(** The bound port with [listen] (resolves port 0). *)

val request : t -> unit
(** Ask for an out-of-band snapshot at the next quantum — signal-handler
    safe.  Forced snapshots {!Telemetry.Snapshot.peek} and keep the
    periodic cadence, so the next tick's deltas cover one whole
    interval. *)

val stats : t -> stats

val stop : ?final_event:string * string -> t -> unit
(** Take the final snapshot (heartbeat, subscribers, textfile), write
    the heartbeat end record, publish the optional final [(event, data)]
    frame, give subscribers a short grace window to drain, close
    everything and join the domain.  Idempotent. *)
