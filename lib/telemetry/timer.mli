(** Wall-clock phase timers with nesting.

    Time is attributed to the innermost active phase only (self time), so
    the per-phase totals partition the instrumented span and sum without
    double counting: entering a nested phase pauses the enclosing one.
    When disabled, {!with_phase} costs one load, one branch and the call
    to [f].

    The timer is also the span source: on exit from a {!Phase.coarse}
    phase it writes one complete event to its span sink, on its track,
    from the same entry and exit readings it accumulates — so a span's
    duration is the timer's own measurement (a leaf phase's spans sum to
    its self time).  The hot inner phases get no span.

    Domain-safety: single-domain only — the phase stack is plain mutable
    state; interleaved enters/exits from two domains corrupt the
    nesting.  Portfolio members each run their own timer, whose self
    times are added into the parent's ({!add_self}) after the join. *)

type t

val create : ?enabled:bool -> ?spans:Span.t -> ?track:int -> unit -> t
(** [enabled] defaults to [false]; [spans] (default disabled) receives
    the coarse phases' spans on [track] (default 0).  A disabled timer
    writes no spans. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val with_phase : t -> Phase.t -> (unit -> 'a) -> 'a
(** Run [f] attributed to the phase; exception-safe (a phase left by an
    exception still gets its span). *)

val add_self : into:t -> t -> unit
(** Add every phase's self seconds of the second timer into [into].  Run
    it only once the second timer's domain has been joined. *)

val self_seconds : t -> Phase.t -> float
val total_seconds : t -> float

val snapshot : t -> (Phase.t * float) list
(** Phases with non-zero accumulated time, largest first. *)

val reset : t -> unit
