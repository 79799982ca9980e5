(** Live solver cells.

    Each solver context publishes what it is doing right now in a
    {!Cell}: its innermost current phase (one atomic, set by
    {!Ctx.with_phase} on entry and restored on exit), its bounds and
    its node count.  Heartbeat and [/events] snapshots read every
    registered cell without locks.  Phase {e times} come from the exact
    {!Timer}, not from here.

    Domain-safety: a cell has exactly one writer (its owning domain) and
    any number of readers.  The registry is fully domain-safe. *)

module Cell : sig
  type t

  val make : ?observed:bool -> name:string -> unit -> t
  (** A fresh cell with a process-unique positive [track] id.
      [observed] false turns {!publish} into a no-op for silent runs
      (bound and node updates still land, they are off the hot path). *)

  val disabled : unit -> t
  (** An inert cell (track 0, never observed). *)

  val observed : t -> bool
  val name : t -> string

  val track : t -> int
  (** Stable id; also used as the span track for this context. *)

  val publish : t -> Phase.t option -> unit
  (** Owner only: set the innermost current phase ([None]: idle).  A
      no-op on an unobserved cell. *)

  val leaf : t -> Phase.t option
  (** Any domain: the innermost current phase, [None] when idle. *)

  val update_lb : t -> float -> unit
  (** Keeps the maximum: a published lower bound never regresses. *)

  val update_ub : ?self:bool -> t -> float -> unit
  (** Keeps the minimum.  [self] (default true) records whether this
      member found the bound itself, or imported it ([self:false]). *)

  val lb : t -> float
  val ub : t -> float
  val ub_self : t -> bool
  val bump_nodes : t -> unit
  val nodes : t -> int
end

(** {1 The member table}

    Every live solver context registers its cell together with its
    counter registry and the Prometheus prefix that registry renders
    under: [""] for the main context, ["portfolio.<name>."] for a
    portfolio member (the prefix its post-join merge uses, so metric
    names stay stable across a member's finish).  The live monitor reads
    whichever entries are registered at the moment it looks: their cells
    for snapshots, their registries for the exposition.  A registry is
    read racy-but-tear-free while its owner writes it. *)

type entry = { cell : Cell.t; registry : Registry.t; prefix : string }

val register : ?prefix:string -> Cell.t -> Registry.t -> unit
(** [prefix] defaults to [""]. *)

val unregister : Cell.t -> unit

val live : unit -> entry list
(** In registration order. *)
