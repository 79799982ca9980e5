(** Preprocessing: probing for necessary assignments (Savelsbergh-style,
    Section 6 of the paper) and exact constraint-level presolve
    (subset-sum coefficient tightening, dominated-constraint removal).
    Every reduction preserves the 0/1 solution set exactly. *)

(** One preprocessing reduction, reported through the [on_reduction]
    hooks so proof logging and telemetry share a single path. *)
type reduction =
  | Fixed of Pbo.Lit.t  (** necessary assignment found by probing *)
  | Tightened of { cid : int; before : Pbo.Constr.t; after : Pbo.Constr.t }
      (** constraint [cid] replaced by an equivalent tighter form *)
  | Removed of { cid : int; by : int }
      (** constraint [cid] implied by constraint [by] and dropped *)

val fix_negation :
  ?on_reduction:(reduction -> unit) -> Engine.Solver_core.t -> Pbo.Lit.t -> unit
(** [fix_negation e l] fixes [~l] for a failed literal [l]: backjumps to
    level 0, reports [Fixed ~l], adds the unit clause and propagates it.
    A level-0 conflict on the way leaves [Solver_core.root_unsat] set. *)

val probe : ?on_reduction:(reduction -> unit) -> Engine.Solver_core.t -> int
(** Runs one pass of failed-literal probing ({!Engine.Solver_core.probe})
    over all unassigned variables, at decision level 0.
    Returns the number of necessary assignments found.  The engine is left
    at decision level 0, propagated to fixpoint; check
    [Solver_core.root_unsat] afterwards.

    [on_reduction] receives [Fixed l] for each necessary literal just
    before the corresponding unit clause enters the engine.  The unit is
    derivable by reverse unit propagation (assuming its negation
    propagates to a conflict — that is exactly how probing found it), so
    loggers emit it as a RUP step. *)

type presolve_result = {
  reduced : Pbo.Problem.t;  (** the reduced, equivalent problem *)
  cid_map : int array;
      (** per reduced constraint, its proof reference: the original cid
          ([>= 0]) when untouched, or [-(k+1)] naming the [k]-th derived
          constraint logged by [certify] for a tightened one *)
  tightened : int;
  removed : int;
}

val presolve :
  ?certify:
    (refs:(Proof.dref * int) list -> divisor:int -> expect:Pbo.Constr.t -> int option) ->
  ?on_reduction:(reduction -> unit) ->
  Pbo.Problem.t ->
  presolve_result
(** Exact presolve before the engine is built:

    - {b coefficient tightening}: per constraint, lift the degree to the
      smallest achievable subset sum and shrink each coefficient to the
      gap its literal can actually close (exact subset-sum DP, bounded to
      small constraints); iterated to fixpoint;
    - {b dominated-constraint removal}: a constraint termwise implied by
      a scaled sibling is dropped (the checker keeps the original
      database, so removal needs no proof step).

    When [certify] is given (proof mode), each tightening is certified
    first: the callback receives a cutting-planes derivation
    (weakening literal axioms plus one division) whose exact replay
    yields [expect], and returns the proof reference for the derived
    constraint — or [None], in which case the tightening is {e skipped}
    (never trusted).  [on_reduction] observes each applied reduction. *)
