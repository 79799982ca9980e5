(** Lower bounding by a greedy maximum independent set of constraints
    (Section 3 of the paper; the classic procedure of Coudert and of
    Manquinho–Silva for binate covering).

    Constraints sharing no unassigned variable have additive minimum
    satisfaction costs.  Each selected constraint contributes the optimum
    of its own single-constraint LP relaxation — the fractional
    knapsack-cover bound: take unassigned literals by increasing
    cost/weight ratio until the residual degree is reached, the last one
    fractionally.

    The explanation [omega_pl] is the set of currently-false literals of
    the selected constraints. *)

type t
(** Prepared rows: the engine's lower-bound-eligible constraints
    ({!Engine.Solver_core.lb_constraints}, whose cids survive
    [reduce_db]) as flat literal/coefficient/cost arrays, pre-sorted by
    cost/weight ratio, plus per-call scratch arrays.  Create once per
    search, after preprocessing; it holds no global state. *)

val create : Engine.Solver_core.t -> t

val compute : t -> Bound.t
(** The bound at the engine's current assignment.  Counts [mis.calls]. *)
