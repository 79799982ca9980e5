(** Process-wide monotonic wall-clock epoch.

    All telemetry sinks (recordings, spans, heartbeats) stamp events relative
    to one shared zero so artifacts from different sinks and different
    portfolio domains line up on a single timeline.  The zero is fixed
    lazily, at the first call from any domain.

    Domain-safety: fully thread/domain-safe (a single CAS-initialized
    atomic). *)

val t0 : unit -> float
(** Absolute [Unix.gettimeofday] value of the epoch zero; fixes it on
    first call. *)

val now : unit -> float
(** Seconds since {!t0}. *)
