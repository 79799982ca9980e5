(** Bounded, self-decimating time series.

    A series records a fixed-arity vector of floats against a time
    offset.  The buffer never exceeds its capacity: when full, every
    other point is dropped and the sampling stride doubles, so
    arbitrarily long runs keep a bounded, shape-preserving trajectory.

    Domain-safety: single-domain only — the decimating buffer is plain
    mutable state; concurrent pushes corrupt the stride invariant. *)

type t

val default_capacity : int
(** 256 points. *)

val make : ?capacity:int -> fields:string list -> string -> t
(** [make ~fields name] creates an empty series whose samples carry one
    float per label in [fields] (e.g. [["lb"; "ub"]]).  [capacity] is
    clamped to at least 4. *)

val name : t -> string
val fields : t -> string list

val length : t -> int
(** Number of currently retained samples (after any decimation). *)

val observe : t -> t:float -> float array -> unit
(** Offer a sample at time offset [t] (seconds).  Subject to the current
    stride: after decimations only one offer out of [stride] is kept.
    Raises [Invalid_argument] when the vector arity does not match
    [fields]. *)

val observe_now : t -> t:float -> float array -> unit
(** Like {!observe} but never dropped by the stride — for rare,
    load-bearing points (incumbent updates). *)

val samples : t -> (float * float array) list
(** Retained samples, oldest first. *)
