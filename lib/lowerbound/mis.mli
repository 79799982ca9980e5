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
    cost/weight ratio, a variable-to-rows occurrence index, each row's
    cover (score and critical ratio) and the ordered positive rows from
    the last call.  Create once per search, after preprocessing; it
    holds no global state.

    Calls are delta-driven.  Each one drains the engine's change set
    ({!Engine.Solver_core.drain_changed_vars}), so [t] must be that
    feed's only consumer during the search.  Only the rows holding a
    variable whose value differs from the one seen at the previous call
    (or at {!create}, which reads the current values) are re-covered.
    The positive rows keep the previous order; the re-covered ones are
    sorted and merged into it.  The result is bit-identical to covering
    and sorting every row afresh: a row's cover depends only on the
    values of its own literals, and the order (score descending, then
    row ascending) is total, so it is the stable sort by score of the
    rows in ascending order. *)

val create : Engine.Solver_core.t -> t
(** Prepares the rows at the engine's current assignment, which may be
    deep in the tree; the first {!compute} covers every row. *)

val compute : t -> Bound.t
(** The bound at the engine's current assignment.  Counts the rows it
    re-covers in [mis.rows_rescored] (the search counts the call itself
    in [search.lb_calls]). *)
