open Pbo

(** bsolo: the paper's hybrid branch-and-bound / SAT-based PBO solver.

    The search is CDCL over PB constraints; at every node whose
    propagation ends without a conflict, the configured lower-bound
    procedure estimates [P.lower].  When
    [P.path + P.lower >= P.upper] (eq. 7), a bound-conflict clause
    [omega_bc = omega_pp ∪ omega_pl] (eqs. 8, 9) is built and fed to the
    regular conflict-analysis machinery, yielding non-chronological
    backtracking.  New incumbents generate the knapsack cut (10) and the
    cardinality inferences (13).

    The same loop runs the PBS and Galena baselines ({!Options.pbs},
    {!Options.galena}): with no lower bound, the knapsack cut in the
    constraint store is their only pruning, and {!Options.t.learning}
    adds Galena's learning to the conflict analysis. *)

val solve : ?options:Options.t -> Problem.t -> Outcome.t
(** Cooperative hooks: when [options.external_incumbent] is set it is
    polled once per search-loop iteration (one propagation batch) and a
    lower external cost tightens the upper bound in place; when
    [options.should_stop] is set the engine polls it during propagation
    and the run exits with [Unknown] once it fires;
    [options.on_incumbent] is invoked on every improving local model
    with its total cost (offset included) — the anytime behaviour the
    paper's "ub" columns rely on.
    See {!Outcome.t.proved_lb} for how proofs completed under imported
    bounds are reported. *)

val solve_under_assumptions :
  ?options:Options.t -> assumptions:Lit.t list -> Problem.t -> Outcome.t
(** Optimum under the extra unit constraints [assumptions] (each assumed
    literal must be true).  Implemented by constraint addition — no
    incremental state is kept between calls. *)
