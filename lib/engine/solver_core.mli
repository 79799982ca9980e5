open Pbo

(** CDCL-style search engine over pseudo-Boolean constraints.

    The engine owns the assignment trail, slack-based Boolean constraint
    propagation over PB constraints, first-UIP conflict analysis with
    clause learning, non-chronological backtracking, VSIDS activities and
    the learned-constraint database.  Optimization drivers (bsolo, the
    linear-search baselines, the preprocessor) sit on top of it.

    Propagation rule for a normalized constraint [sum a_i l_i >= d] with
    slack [s = sum of a_i over non-false l_i - d]: [s < 0] is a conflict,
    and any unassigned [l_i] with [a_i > s] is implied true.  Every
    constraint but a cut-row member (below) propagates through a watched
    set: non-false terms whose weight covers [d] plus the largest
    coefficient (at first the shortest such decreasing-coefficient
    prefix), or, when there are not enough (a single-term constraint,
    say), all its terms. *)

type t

(** Identifier of a stored constraint. *)
type cid = int

(** Outcome of conflict analysis. *)
type analysis =
  | Root_conflict  (** conflict at (or implied at) decision level 0 *)
  | Backjump of {
      level : int;  (** level jumped back to *)
      asserting : Lit.t option;
          (** literal asserted by the learned clause, when one exists *)
    }

val create : ?telemetry:Telemetry.Ctx.t -> Problem.t -> t
(** Loads every problem constraint.  Check {!root_unsat} before searching:
    it is set when the problem is trivially unsatisfiable.  Search
    counters are registered against the telemetry context's registry
    (default: a fresh silent context).  The engine emits no search
    events itself: the search drivers record them through the context's
    recorder (probing decisions are not recorded). *)

val problem : t -> Problem.t
val root_unsat : t -> bool
val nvars : t -> int

(** {1 Assignment state} *)

val value_var : t -> Lit.var -> Value.t
val value_lit : t -> Lit.t -> Value.t
val level_of_var : t -> Lit.var -> int
val decision_level : t -> int
val num_assigned : t -> int
val all_assigned : t -> bool
val model : t -> Model.t
(** Current assignment as a model; unassigned variables default to false.
    Meaningful when {!all_assigned} holds. *)

val path_cost : t -> int
(** Sum of objective costs of literals currently assigned true (the
    paper's [P.path]); excludes the objective offset. *)

val cost_of_lit : t -> Lit.t -> int
(** Objective cost attached to a literal ([0] if none). *)

val trail_epoch : t -> int
(** Monotone counter bumped on every assignment and unassignment.  Equal
    epochs across two observations guarantee the assignment state did not
    change in between — the cheap staleness test for cached bounds. *)

val drain_changed_vars : t -> (Lit.var -> unit) -> unit
(** Invokes the callback once per variable whose assignment status
    changed (assigned or unassigned, in any order, deduplicated) since
    the previous drain — the delta feed for incremental lower-bounding.
    Clears the change set.

    The feed has one consumer per search, since a drain hides the
    changes from everyone else: under LPR [Residual.Full.sync], under
    MIS [Mis.compute].  Nothing else reads it; root probing ({!probe})
    leaves its churn there.  [Residual.Full] and [Mis] snapshot the
    current values when they are created and drain what came before. *)

(** {1 Search primitives} *)

val decide : t -> Lit.t -> unit
(** Opens a new decision level and assigns the literal, which must be
    unassigned. *)

val propagate : t -> cid option
(** Runs unit/PB propagation to fixpoint; returns a violated constraint on
    conflict. *)

(** {1 Cooperative cancellation}

    Portfolio workers (and any other embedder) can install an interrupt
    check that the engine polls from inside {!propagate} at a bounded
    cadence (every few hundred trail entries, at negligible cost).  Once
    the check returns [true] the engine latches {!interrupted};
    propagation still completes its fixpoint, so the trail is never left
    mid-batch.  Drivers fold {!interrupted} into their budget checks and
    exit with an [Unknown] outcome. *)

val set_interrupt : t -> (unit -> bool) -> unit
(** Install (or replace) the cooperative interrupt check. *)

val interrupted : t -> bool
(** True once an installed interrupt check has returned [true]. *)

val interrupt_requested : t -> bool
(** Consult the installed check directly (no poll-cadence fuel), latching
    {!interrupted} when it fires.  For long-running kernels outside the
    propagation loop that poll on their own cadence — notably the simplex
    iteration loop behind the LPR lower bound. *)

val set_on_learned : t -> (Lit.t list -> unit) -> unit
(** Install a proof-logging hook called with each learned clause right
    after conflict analysis attaches it (and before the asserting
    literal is assigned).  Every such clause is derivable by reverse
    unit propagation from the constraints the engine holds at that
    point, so a logger can emit it as a RUP step. *)

val analyze : t -> cid -> analysis
(** First-UIP analysis of a conflicting constraint: learns a clause,
    backjumps and asserts its UIP literal.

    Resolution and minimization read each constraint through a
    certificate: walking its terms in order (decreasing coefficient),
    take every usable literal — false, and for the reason of an implied
    literal [p], assigned before [p] — until the weight taken exceeds
    the constraint's excess (coefficient sum minus degree, minus [p]'s
    coefficient for a reason); a term is looked at while the weight
    taken before it is at most the excess.  The certificate's literals
    are marked last taken first; minimization drops a literal whose
    reason's certificate lies within the marked or level-0 variables
    and stops at the first one that does not.  The walk allocates
    nothing but the learned clause. *)

val learn_false_clause : t -> Lit.t list -> analysis
(** [learn_false_clause s lits] handles an externally discovered conflict
    clause — every literal in [lits] must currently be false.  Used for
    the paper's bound conflicts (Section 4) and for incumbent cuts.  The
    clause is analyzed exactly like a propagation conflict, enabling
    non-chronological backtracking. *)

val add_constraint_dynamic : t -> Constr.t -> cid option
(** Adds a constraint during search (e.g. the knapsack cut (10) when a new
    incumbent is found).  Returns [Some cid] when the constraint is
    conflicting under the current assignment; implied literals are
    propagated on the next {!propagate}.  The constraint stays out of the
    lower-bounding view: that view ({!lb_constraints}) is fixed when the
    engine is created, and [Mis.t] and [Residual.Full] prepare it once on
    that understanding. *)

(** {1 Cut rows}

    The incumbent cuts (eqs. 10-13) are, per source, one fixed term list
    whose degree rises with every new incumbent: the objective's normal
    form (the knapsack row (10)) minus the terms of an excluded set K,
    divided by one factor.  A {e row} stores that term list once; each
    cut is a {e member} of the row that keeps only its degree.  Every
    row reads one lagged sum, the cost of the objective's non-false
    normal-form terms, less the cost of its own non-false excluded
    terms, so the dequeue of an objective literal moves one sum and
    the excluded sums of the few rows that exclude it, and visits only
    the rows whose tightest member can act.  A member is otherwise an
    ordinary learned constraint — its own cid, activity and [Constr.t]
    (sharing the row's term array) — so reasons, conflicts, analysis
    and {!reduce_db} treat it exactly as the same constraint added with
    {!add_constraint_dynamic}, and the search is identical. *)

type row

val add_cut : t -> ?row:row -> Constr.t -> row option * cid option
(** [add_cut s ?row c] adds [c] as a member of [row] when [c]'s terms
    are the row's, and otherwise (or without [row]) as the first member
    of a new row when its terms are the objective's normal form minus
    some terms over one factor; returns the row [c] joined.  Any other
    [c] (a saturated cut, say) is added with {!add_constraint_dynamic}
    and the row is [None].  The result is the same contract as
    {!add_constraint_dynamic} (not in the lower-bounding view):
    [Some cid] when [c] is conflicting. *)

val backjump_to : t -> int -> unit
(** Undo decisions above the given level (for restarts; analysis
    backjumps internally). *)

val restart : t -> unit
(** Backjump to level 0. *)

(** {1 Branching support} *)

val next_branch_var : t -> Lit.var option
(** Unassigned variable of maximal VSIDS activity, or [None] when all are
    assigned. *)

val phase_hint : t -> Lit.var -> bool
(** Saved polarity from the last assignment of the variable (initially
    [false], matching the minimize-costs default). *)

val set_default_phase : t -> Lit.var -> bool -> unit
val bump_var_activity : t -> Lit.var -> unit

(** {1 Lower-bounding view}

    Residual image of the original problem constraints under the current
    partial assignment, as consumed by the MIS / LPR / LGR procedures. *)

type active = {
  acid : cid;
  aterms : (int * Lit.t) list;  (** unassigned literals with coefficients *)
  aresidual : int;  (** degree minus weight of already-true literals, > 0 *)
}

val active_constraints : t -> active list
(** Problem constraints (every constraint that is not learned) not yet
    satisfied, in residual form.  Constraints whose residual is [<= 0]
    (already satisfied) are omitted. *)

val lb_constraints : t -> (cid * Constr.t) list
(** All problem constraints, satisfied or not, with their cids — the
    fixed row set of the incremental LP relaxation.  These cids are
    stable across {!reduce_db} (only learned constraints are dropped)
    for the lifetime of the solver. *)

val omega : t -> ?keep:(Lit.t -> bool) -> path:bool -> cid list -> Constr.t list -> Lit.t list
(** [omega s ?keep ~path cids cuts] builds a bound-conflict explanation:
    the literals currently false in the stored constraints [cids] and in
    the constraints [cuts] (LP cut rows the store does not hold) that
    pass [keep] — the paper's [omega_pl] (eq. 9) — and, with [path], the
    negations of the cost literals currently true, [omega_pp] (eq. 8),
    which [keep] does not filter.  Each literal appears once, in
    ascending order: [List.sort_uniq Lit.compare] of the concatenation,
    the order the proof log writes.  The literals are collected in a
    byte array of one mark per literal index, reused across calls and
    cleared as the marked span is read back. *)

val unassigned_cost_terms : t -> (int * Lit.t) list
(** Objective cost terms whose variable is still unassigned. *)

val true_cost_lits : t -> Lit.t list
(** Cost-bearing literals currently assigned true: the support of
    [P.path], i.e. the paper's [omega_pp] before negation (eq. 8). *)

(** {1 Learned-database management} *)

val num_learned : t -> int
(** Constraints added as learned (cut-row members included), in
    constant time. *)

val reduce_db : t -> unit
(** Removes roughly half of the learned clauses, preferring low activity;
    locked (reason) and asserting constraints are kept. *)

(** {1 Statistics}

    Counters are handles into the run's telemetry registry (names
    ["engine.*"]); incrementing one is a single store.  A run's outcome
    carries the registry's snapshot under these names.  The engine also
    keeps the ["bcp.*"] counters: implied assignments
    ([bcp.propagations], the run's one propagation count), constraint
    examinations, watch moves and extensions, and the watched and
    watch-all populations. *)

type stats = {
  decisions : Telemetry.Counter.t;
  conflicts : Telemetry.Counter.t;
  bound_conflicts : Telemetry.Counter.t;
  learned_total : Telemetry.Counter.t;
  restarts : Telemetry.Counter.t;
  max_trail : Telemetry.Counter.t;
  backjump_len : Telemetry.Histogram.t;
  learned_size : Telemetry.Histogram.t;
  depth : Telemetry.Histogram.t;  (** decision level at each decision *)
}

val stats : t -> stats

val telemetry : t -> Telemetry.Ctx.t
(** The telemetry context the engine was created with. *)

val constr_of : t -> cid -> Constr.t
(** The stored constraint under an identifier (for explanation builders). *)

val trail : t -> (Lit.t * cid option) list
(** The trail in assignment order, each literal with its reason
    ([None] for a decision) — for lockstep tests. *)

val iter_trail_from : t -> int -> (Lit.t -> unit) -> unit
(** [iter_trail_from s i f] applies [f] to the trail's literals from
    position [i] on, in assignment order: with [i] an earlier
    {!num_assigned} and no backjump below it since, the literals
    assigned since then. *)

val iter_trail_above : t -> int -> (Lit.t -> unit) -> unit
(** [iter_trail_above s lvl f] applies [f] to the literals assigned above
    decision level [lvl], in assignment order: every literal a probe
    decided at level [lvl + 1] made true. *)

val probe :
  t -> stop:(unit -> bool) -> failed:(Lit.t -> unit) -> implied:(Lit.t -> unit) -> unit
(** Root probing (decision level 0 required; the engine is left there).
    Propagates once, then, unless that conflicts, tries the unassigned
    literals variable by variable, positive first, until [stop ()] or
    {!root_unsat}: decides each such literal [l] and propagates.  On a
    conflict it backjumps to level 0 and calls [failed l], which may fix
    [~l] there; otherwise it calls [implied l] at level 1, where
    {!iter_trail_above}[ t 0] lists [l] and what it forced, then
    backjumps.  The change feed ({!drain_changed_vars}) is left holding
    the probes' churn. *)

val decisions : t -> Lit.t list
(** Current decision literals, outermost first (for the chronological
    bound-conflict ablation). *)

val slack_of : t -> cid -> int
(** Current slack of a stored constraint (negative = violated). *)

val resolve_conflict : t -> cid -> analysis
(** Like {!analyze}, but re-analyzes while the constraint remains violated
    after the backjump.  Conflicts detected by {!propagate} on constraints
    that were present at the previous fixpoint cannot stay violated after
    one analysis, but dynamically added constraints (knapsack cuts) can:
    their violation may rest on literals from many decision levels.
    Drivers should always use this entry point. *)

val iter_constraints : t -> (learned:bool -> Constr.t -> unit) -> unit
(** Iterates over all stored constraints (problem and learned), e.g. for
    checking entailment invariants in tests. *)

val derive_pb_resolvent : t -> cid -> Constr.t option
(** Cutting-planes conflict analysis (Chai–Kuehlmann / Galena style): from
    a violated constraint, resolve backwards along the trail, cancelling
    each implied literal against its reason by a scaled cutting-plane
    addition.  Whenever a PB-with-PB resolvent would lose the conflict
    (positive slack after normalization), the reason is weakened to its
    implication-certificate clause, which always preserves violation.
    Returns a constraint that is entailed by the constraint store and
    violated under the current assignment — usually strictly stronger
    than the 1UIP clause — or [None] when the derivation is abandoned
    (size or coefficient blow-up).  The engine state is not modified. *)

val check_invariants : t -> (unit, string) result
(** Expensive self-check for tests and debugging: watch-set slacks
    match the weight of their watched non-false terms, the watch
    invariant holds (the watch set
    covers maxcoeff, or every non-false term is watched, or a watched
    falsified term marks an allowed transient state), trail levels are
    monotone, and the path cost matches the assigned cost literals.
    Cut rows: the shared objective sum and every row's excluded sum
    and key match their lagged recomputation, a row's key is above the
    shared sum exactly when the row is tight, every row is the
    objective's normal form minus exactly the terms its exclusion lists
    name, its member list names exactly its members, in ascending
    degree, and no term of the normal form before the shared cursor (as
    its level marks cut it back) is unassigned or of a level above its
    mark's.  {!num_learned} and the [bcp.constrs_watched] and
    [bcp.constrs_watch_all] populations match a recount (so the engine
    must own its registry's [bcp.*] counters). *)
