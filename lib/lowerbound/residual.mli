open Pbo

(** The residual problem at a search node: the still-unsatisfied
    lower-bound-eligible constraints restricted to unassigned variables,
    in signed variable form ([~x] rewritten as [1 - x]), together with the
    residual objective.  Shared by the LPR and LGR procedures. *)

type row = {
  cid : Engine.Solver_core.cid;  (** constraint this row came from *)
  coeffs : (int * float) array;  (** dense column, signed coefficient *)
  rhs : float;
}

type t = {
  cols : Lit.var array;  (** dense column -> problem variable *)
  ncols : int;
  obj : float array;  (** signed objective coefficient per column *)
  obj_offset : float;
      (** constant such that residual cost = obj . x + obj_offset for
          columns' variables, all other unassigned cost variables taking
          their free polarity *)
  rows : row array;
}

val extract : Engine.Solver_core.t -> t

val signed_objective : ncols:int -> Problem.t -> float array * float
(** [(obj, shift)]: the problem objective over columns = variables with
    [~x] rewritten as [1 - x], so that cost = [obj . x + shift + offset]
    for the problem's own [offset] (not included in [shift]).  [ncols]
    is the array length (at least the number of variables).  The LP
    objective of both {!Full} and the MILP baseline; each constraint row
    comes from {!Cuts.lp_row}. *)

(** Fixed-structure LP relaxation for incremental re-solving: one LP over
    {e all} problem variables (column [j] = variable [j]) and every
    non-learned lower-bound-eligible constraint.  Between search nodes
    only column bounds change (assigned variables are fixed to their
    values), which is exactly the edit language of
    {!Simplex.Incremental}; rows satisfied by the assignment are LP
    redundant, so the optimum equals the path's objective contribution
    plus the residual optimum of {!extract}. *)
module Full : sig
  type t = {
    cids : Engine.Solver_core.cid array;  (** constraint per LP row *)
    lp : Simplex.problem;
    obj_offset : float;
        (** constant such that total assignment cost (excluding the
            problem offset) = LP objective + offset *)
    mirror : Value.t array;  (** last value pushed into the LP, per var *)
  }

  (** Summary of one bound-delta push. *)
  type edits = {
    fixes : (int * float) list;  (** columns newly fixed, with values *)
    unfixes : int;  (** columns released back to [0, 1] *)
    flips : int;
        (** columns re-fixed to the opposite value without an observed
            intermediate release (True -> backjump -> False between two
            drains); counted in [fixes] too, but never a tightening *)
    total : int;  (** effective edits (cancelled churn excluded) *)
  }

  val build : Engine.Solver_core.t -> t option
  (** Snapshot the current problem; [None] when no constraint is eligible
      for lower bounding.  Drains the engine's pending change set so the
      first {!sync} starts from this snapshot. *)

  val sync : t -> Engine.Solver_core.t -> Simplex.Incremental.t -> edits
  (** Drain assignment changes since the previous call and apply them to
      the incremental LP as [fix]/[unfix] edits. *)
end
