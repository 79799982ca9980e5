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
(** Every incumbent goes through one entry point, whether it is a leaf of
    this search or a model imported from a portfolio peer: the model must
    satisfy [problem] as given and cost what it claims, else it is
    refused ([search.incumbent_rejects]); an adopted model sets the upper
    bound and the outcome's [best], is logged as a verified solution step
    in proof mode, emits the incumbent or import event and installs the
    incumbent cuts (10)-(13), a conflicting cut backjumping as at a leaf.
    So a closed search always proves its best model [Optimal], imported
    or not.

    Cooperative hooks: when [options.external_incumbent] is set it is
    polled once per search-loop iteration, at the loop top, and a model
    below the upper bound is offered; when [options.should_stop] is set
    the engine polls it during propagation and the run exits with
    [Unknown] once it fires; [options.on_incumbent] is invoked on every
    improving model this search found itself, with its total cost
    (offset included) — the anytime behaviour the paper's "ub" columns
    rely on. *)

val solve_under_assumptions :
  ?options:Options.t -> assumptions:Lit.t list -> Problem.t -> Outcome.t
(** Optimum under the extra unit constraints [assumptions] (each assumed
    literal must be true).  Implemented by constraint addition — no
    incremental state is kept between calls. *)
