open Pbo

(** LP-based branch-and-bound for 0-1 integer programs — the stand-in for
    the commercial MILP solver (CPLEX) used as a baseline in Table 1.

    Best-bound node selection, most-fractional branching, an LP-rounding
    primal heuristic, and ceiling-based integral bound tightening.  Every
    LP is solved from scratch with the {!Simplex} substrate (no warm
    starts), which matches the "general-purpose solver" role: strong on
    optimization instances, weak on pure satisfaction instances where the
    relaxation carries no information. *)

val solve : ?options:Bsolo.Options.t -> Problem.t -> Bsolo.Outcome.t
(** Honours [time_limit] and [node_limit], plus the cooperative portfolio
    hooks: [external_incumbent] is polled once per node and an improving
    model is adopted through the same check as an LP rounding — it must
    satisfy the problem and cost what it claims, else it is refused and
    counted ([search.incumbent_rejects]) — [should_stop] is checked in
    the budget test, and [on_incumbent] is called on every improving
    rounded model.  Other options are ignored. *)
