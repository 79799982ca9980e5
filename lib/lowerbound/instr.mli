(** Counter handles for the lower-bound procedures, and bridges from the
    leaf libraries' per-call stat records into the shared telemetry
    counter namespace ([simplex.*], [subgradient.*]). *)

type counter
(** A counter bound by name on its first non-zero increment: a hot path
    holds the handle, so the name is looked up once per solve, and a
    counter that never moves stays absent from registry snapshots
    ([--stats], [Outcome.counters]). *)

val counter : Telemetry.Registry.t -> string -> counter

val add : counter -> int -> unit
(** [add c n] adds [n] to [c]; no-op when [n = 0]. *)

type simplex_counters
(** The six [simplex.*] counters, bound lazily. *)

val simplex_counters : Telemetry.Registry.t -> simplex_counters
val flush_simplex : simplex_counters -> Simplex.stats -> unit

val flush_subgradient : Telemetry.Registry.t -> Lagrangian.Subgradient.stats -> unit
(** Binds by name on every call: {!Lgr} evaluations are one call into the
    subsystem each. *)
