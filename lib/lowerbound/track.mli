(** Bound-quality tracking.

    Records, per lower-bound procedure, how tight each evaluation was
    relative to the gap it had to close and which procedure earned each
    bound-conflict backjump.  The instruments live in the run's shared
    registry under [lb.<proc>.*] and [lb.path.*], and surface in run
    reports and [bsolo inspect].  The run's incumbent trajectory is the
    report's [incumbents], not kept here. *)

type t

val create : Telemetry.Ctx.t -> proc:string -> t
(** [proc] is the lower-case procedure name ("mis", "lgr", "lpr",
    "plain"); instruments are bound once here. *)

val tightness_pm : value:int -> need:int -> int
(** Gap closure per mille: [1000 * value / need] clamped to [0, 1000];
    [need <= 0] counts as fully closed. *)

val note_call : t -> value:int -> path:int -> upper:int -> unit
(** Record one LB evaluation: tightness and raw-value histograms.  (The
    evaluation's search event is the driver's [lb_eval] recorder
    event.) *)

val note_bound_conflict :
  t -> lb_driven:bool -> lb:int -> path:int -> upper:int -> from_level:int -> to_level:int -> unit
(** Attribute one bound conflict and its backjump length.  [lb_driven]
    is false when the path cost alone reached the incumbent (attributed
    to the pseudo-procedure ["path"]).  Also emits a [Prune] event with
    the same blame to the context's flight recorder, carrying the
    bound / path / incumbent values that justified the prune. *)

val publish_global_lb : t -> lb:int -> unit
(** Publish a globally valid lower bound (root-level evaluation) to the
    context's live profile cell for heartbeat monitors.  Node-local
    bounds must NOT go through here: the cell keeps the maximum, and a
    subtree bound above the optimum would freeze a wrong value into the
    reported gap. *)
