open Pbo

(** Machine-readable run reports.

    A report is a single JSON object combining everything needed to
    interpret one (solver, instance) run after the fact: the outcome,
    instance shape ({!Pstats}), solver configuration, the telemetry
    registry snapshot (counters, gauges, histograms), per-phase wall-clock
    times and the anytime incumbent trajectory.  The format is documented
    in [docs/OBSERVABILITY.md]. *)

type incumbent = {
  at : float;  (** seconds since the solve started *)
  cost : int;  (** total cost, objective offset included *)
}

val schema : string
(** Value of the report's ["schema"] field. *)

val make :
  ?instance:string ->
  ?engine:string ->
  ?run_id:string ->
  ?started:float ->
  ?problem:Problem.t ->
  ?options:Options.t ->
  ?incumbents:incumbent list ->
  telemetry:Telemetry.Ctx.t ->
  Outcome.t ->
  Telemetry.Json.t
(** [run_id] and [started] (absolute [Unix.gettimeofday] at run start)
    correlate the report with trace/span/heartbeat/proof artifacts of
    the same run. *)

val options_json : Options.t -> Telemetry.Json.t
(** The report's ["options"] object: the lower-bound method, the BCP,
    cuts and learning modes, the LGR iteration count, every
    {!Options.switches} entry under its key, and the limits. *)

val to_string : Telemetry.Json.t -> string
val write_file : string -> Telemetry.Json.t -> unit

val phases_of_json : Telemetry.Json.t -> (string * float) list
(** Per-phase self times of a parsed report, seconds. *)
