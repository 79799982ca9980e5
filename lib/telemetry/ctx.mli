(** One telemetry context per solver run.

    Phase timer, instrument registry, span sink, live cell and flight
    recorder travel together.  The recorder is the only producer of
    search events ([--record]).  {!silent} is the default used when the
    caller asked for nothing: counters still accumulate (they back the
    outcome snapshot) but the timer is off, no spans or recording are
    written and the cell is inert.

    Domain-safety: a context is single-domain except for its span sink
    and recorder (mutex-guarded) and its live cell (single writer, any
    readers).  Parallel portfolio workers each get a private context —
    own registry, own timer (enabled when the parent's is), own cell,
    own recorder writing the member's part file — whose timer may write
    to the parent's span sink, on the worker's own track; per-worker
    registries and phase times are merged after the domains are
    joined. *)

type t = {
  timer : Timer.t;
  registry : Registry.t;
  spans : Span.t;
  cell : Profile.Cell.t;
  recorder : Recorder.t;
}

val silent : unit -> t

val create :
  ?timing:bool ->
  ?spans:Span.t ->
  ?cell:Profile.Cell.t ->
  ?recorder:Recorder.t ->
  unit ->
  t
(** [timing] defaults to [true]; omitted [spans] are disabled, an
    omitted [cell] is inert and an omitted [recorder] is disabled.  The
    timer writes the spans, on the cell's track, so an enabled [spans]
    sink turns it on whatever [timing] says. *)

val incumbent : t -> cost:int -> unit
(** A new own incumbent of cost [cost] (offset included): the recorder's
    [incumbent] event and the live cell's upper bound. *)

val import : t -> cost:int -> member:string -> unit
(** A model found by portfolio member [member] became the search's
    incumbent: [search.incumbent_imports] (registered at the first
    import, so a run that imports nothing does not list it), the
    recorder's [import] event and the live cell's (imported) upper
    bound. *)

val reject : t -> unit
(** An offered incumbent was refused — it broke a constraint of the
    input problem or did not cost what it claimed: bumps
    [search.incumbent_rejects], registered at the first refusal. *)

val with_phase : t -> Phase.t -> (unit -> 'a) -> 'a
(** Run [f] attributed to the phase across the whole observability
    stack: exact self-time and, for {!Phase.coarse} phases, one span on
    this context's track (both {!Timer.with_phase}), and the live cell's
    current phase ({!Profile.Cell.publish} on entry, the enclosing phase
    restored on exit).  Exception-safe.  With no cell observed this is
    exactly [Timer.with_phase] plus one load and branch. *)

val close : t -> unit
(** Flush and close the span sink and the recorder (idempotent). *)
