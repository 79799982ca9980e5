(** Declare-once registry of counters, gauges and histograms.

    Lookups by name happen at instrument-binding time (once per solve or
    per call into a subsystem), never per event: callers hold on to the
    returned handle and mutate it directly.  Requesting the same name
    twice returns the same instrument.

    Domain-safety: a registry and every instrument bound from it are
    single-domain — plain mutable state with no synchronization.  Never
    share one across domains; give each portfolio worker its own registry
    and merge snapshots after the workers are joined
    ({!Portfolio.solve} does exactly this). *)

type t

val create : unit -> t

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

val find_counter : t -> string -> int option
val find_gauge : t -> string -> float option

val counters : t -> (string * int) list
(** Snapshot of all counters, sorted by name. *)

val gauges : t -> (string * float) list
val histograms : t -> Histogram.t list
