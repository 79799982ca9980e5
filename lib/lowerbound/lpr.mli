(** Lower bounding by linear-programming relaxation (Section 3.1) with
    the bound-conflict explanation of Section 4.2 and the LP-guided
    branching hint of Section 5.

    The problem is relaxed to [0 <= x <= 1] and solved with the
    {!Simplex} substrate.  [ceil] of the LP optimum (plus the objective
    offset, minus the path cost) lower-bounds the cost of any completion.
    The explanation is built from the rows that are tight at the LP
    optimum (rows with zero surplus); when the LP is infeasible, from the
    rows of the infeasibility witness, and the bound is [cap].

    One persistent LP serves the whole search: a fixed-structure
    relaxation ({!Residual.Full}) whose column bounds track the trail via
    {!Engine.Solver_core.drain_changed_vars}, re-optimized by
    {!Simplex.Incremental}'s dual simplex from the previous basis.  A
    solve is skipped entirely when the cached outcome is provably still
    valid (no effective edits; fixes landing exactly on the previous LP
    optimum; pure tightenings of an infeasible system).

    Telemetry: [lpr.warm_hits] / [lpr.warm_iters] / [lpr.cold_falls]
    count every [reoptimize], separation re-solves included;
    [lpr.cache_hits] the calls answered without one;
    [lpr.cold.drop_fallback] the cut-row evictions that lost the basis;
    and [lpr.infeasible] / [lpr.iteration_limits] the LP solves (cache
    hits excluded) that ended infeasible or at the iteration limit. *)

type inc

val make : ?cuts:Cuts.config -> Engine.Solver_core.t -> inc
(** Snapshot the engine's lower-bounding constraint set and current
    assignment.  Create once per search (after preprocessing); the
    constraint rows are fixed from then on — later learned constraints
    never join the LP.

    With [cuts], each {!compute_inc} evaluation runs a bounded
    separation loop on top of the fixed rows: solve, separate violated
    cover/clique/implied-bound cuts against the fractional optimum
    ({!Cuts.Pool.separate}), splice them in as extra rows
    ({!Simplex.Incremental.add_row}) and re-solve warm, up to
    twice ([Root] mode separates at decision level 0
    only).  After the final optimal solve the pool ages its rows
    against the duals and stale zero-dual cut rows are dropped from the
    live LP.  Cut rows carry their own proof references and false
    literals into bound-conflict certificates and explanations. *)

val compute_inc : inc -> cap:int -> Bound.t
(** [cap] is the value reported when the relaxation is infeasible; pass
    at least [upper - path] so the node prunes.  Without cuts the bound
    equals the ceiling of the residual LP optimum over
    {!Residual.extract}'s rows (the full LP optimum minus the path
    contribution equals the residual optimum). *)
