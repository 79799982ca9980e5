(** Solver configuration.

    The defaults reproduce the paper's best configuration: LPR lower
    bounding, non-chronological bound conflicts, knapsack cuts,
    cardinality inference, LP-guided branching and probing
    preprocessing. *)

type lb_method =
  | Plain  (** no lower bound estimation *)
  | Mis
  | Lgr
  | Lpr

(** Where LP cut separation runs ({!Lowerbound.Lpr} only): nowhere, at
    the root node only, or throughout the search tree. *)
type cuts_mode =
  | Cuts_off
  | Cuts_root
  | Cuts_tree

(** What a propagation conflict teaches the search besides its 1UIP
    clause. *)
type learning =
  | Clauses  (** the 1UIP clause only (bsolo, PBS) *)
  | Cardinality
      (** Galena's 2003 learning: when a conflict involves a genuine
          (non-cardinality) PB constraint, its cardinality reduction
          [sum l_i >= r], with [r] the least number of true literals in
          any satisfying assignment, is learned once per constraint
          (the memo resets when the learned database is reduced) *)
  | Cutting_planes
      (** [Cardinality] plus a full cutting-planes PB resolvent at every
          conflict ({!Engine.Solver_core.derive_pb_resolvent},
          RoundingSat-style), which then seeds the 1UIP analysis.  Not
          part of the Table 1 galena configuration: it post-dates the
          paper and is strong enough to change who wins (the
          [extension-cp] benchmark). *)

type t = {
  lb_method : lb_method;
  bound_conflict_learning : bool;
      (** when false, bound conflicts use the all-decisions explanation,
          which degenerates to chronological backtracking (ablation A) *)
  knapsack_cuts : bool;  (** eq. (10) at every new incumbent *)
  cardinality_inference : bool;  (** eqs. (11)-(13) at every new incumbent *)
  lp_guided_branching : bool;  (** Section 5 branching rule *)
  preprocess : bool;  (** failed-literal probing for necessary assignments *)
  presolve : bool;
      (** exact constraint-level presolve before the engine is built:
          subset-sum coefficient tightening and dominated-constraint
          removal ({!Preprocess.presolve}); in proof mode every applied
          tightening is certified by a cutting-planes derivation first *)
  cuts : cuts_mode;
      (** LPR cut separation: cover, clique and implied-bound cuts
          separated against the fractional LP optimum and managed by an
          aging pool (default [Cuts_tree]) *)
  constraint_strengthening : bool;
      (** probing-based constraint strengthening (Section 6 / {!Strengthen}) *)
  restarts : bool;  (** Luby restarts (on in the linear-search presets) *)
  learning : learning;
      (** conflict learning beyond the 1UIP clause (default [Clauses]);
          proof mode forces [Clauses] *)
  lgr_iters : int;  (** subgradient iterations per LGR evaluation *)
  lb_adaptive : bool;
      (** evaluate the lower bound at every eligible node (the paper's
          policy), but stretch the interval (up to every 8th node) while
          evaluations keep failing to prune, resetting on the first prune
          (default [true]) *)
  reduce_db : bool;  (** periodic learned-clause deletion *)
  conflict_limit : int option;
  node_limit : int option;
  time_limit : float option;  (** wall-clock seconds *)
  telemetry : Telemetry.Ctx.t option;
      (** instrumentation context shared by the driver, engine and
          lower-bound procedures; [None] (the default) runs with a fresh
          silent context: counters still back the outcome snapshot but no
          timing, trace or progress output is produced *)
  external_incumbent : (unit -> (int * Pbo.Model.t * string) option) option;
      (** incumbent import hook (parallel portfolio): polled once per
          search-loop iteration, at the loop top.  It returns the best
          [(cost, model, member)] any peer has found (cost offset
          included, [member] the finder's name).  A model below the
          driver's upper bound is offered exactly like one of its own
          leaves: it is adopted only if it satisfies the input problem
          and costs [cost], and then becomes the incumbent — the bound,
          the outcome's [best], a verified solution step in the proof
          log and the incumbent cuts (10)-(13).  Counted as
          [search.incumbent_imports]; a refused model is counted as
          [search.incumbent_rejects] and never trusted.  The hook must be
          cheap and safe to call from the solving domain (typically an
          [Atomic.get]). *)
  should_stop : (unit -> bool) option;
      (** cooperative cancellation hook: polled from the engine's
          propagation loop at a bounded cadence; once it returns [true]
          the driver gives up with an [Unknown] outcome (keeping any
          incumbent found so far).  Must be cheap and domain-safe. *)
  on_incumbent : (Pbo.Model.t -> int -> unit) option;
      (** called on every strict improvement of the driver's own
          incumbent with the model and its cost (offset included) — the
          broadcast side of the portfolio's shared-incumbent cell.
          Imported incumbents are not broadcast back.  Runs on the
          solving domain; must be cheap and domain-safe. *)
  decision_oracle : (unit -> Pbo.Lit.t option) option;
      (** deterministic-replay hook: when set, the bsolo driver asks it
          for every branching decision instead of consulting the
          activity/phase heuristics.  [Some lit] decides [lit]; [None]
          (or a literal that is already assigned, which a faithful
          replay never produces) ends the search with an [Unknown]
          outcome.  Used by {!Replay} to re-execute a recorded decision
          sequence. *)
  proof : Proof.t option;
      (** when set, the driver streams a checkable derivation log through
          this logger: verified solutions, RUP steps for learned clauses,
          explicit Lagrangian/Farkas justifications for bound conflicts,
          objective cuts and a terminating conclusion.  Implies
          [constraint_strengthening = false] and [learning = Clauses]
          (strengthened constraints and learned PB constraints have no
          cutting-planes derivation in the log).  In proof mode a
          bound-based prune whose certificate fails exact validation is
          skipped rather than logged unsoundly. *)
}

val default : t
(** bsolo with LPR and all techniques on; no limits. *)

val with_lb : lb_method -> t
(** {!default} with the given lower-bound method. *)

val pbs : t
(** The PBS baseline (Section 3): SAT-style linear search on the cost
    function.  No lower bound ([Plain]); every new incumbent is blocked
    by the knapsack cut (10) in the constraint store, so the next model
    must cost strictly less, until unsatisfiability proves optimality.
    Luby restarts on; cardinality inference, presolve, strengthening,
    LP cuts and LP-guided branching off. *)

val galena : t
(** The Galena baseline: {!pbs} with [learning = Cardinality]. *)

(** {2 The settings table}

    Every other copy of the search settings derives from the lists
    below: the solve command's flags and their documented defaults,
    the recording header's flag bits ({!Replay.flags_of_options}), the
    run report's [options] object ({!Report}) and replay's
    reconstruction of a recorded run. *)

val name : (string * 'a) list -> 'a -> string
(** [name table v] is [v]'s name in [table]. *)

val lb_methods : (string * lb_method) list
(** ["plain" | "mis" | "lgr" | "lpr"]: the [--lb] values and the
    recording header's lower-bound name. *)

val cuts_modes : (string * cuts_mode) list
(** ["off" | "root" | "tree"]: the [--cuts] values. *)

val learnings : (string * learning) list

val presets : (string * t) list
(** The engines that run {!Solver.solve}, each a starting point the
    search flags edit: ["bsolo"] ({!default}), ["pbs"] and ["galena"].
    A recording header names its preset as the engine. *)

val lb_method_name : lb_method -> string
(** The paper's spelling: ["plain" | "MIS" | "LGR" | "LPR"]. *)

(** An on/off setting that shapes the search tree. *)
type switch = {
  key : string;  (** the record field's name, the run report's key *)
  bit : int;  (** its recording-header flag bit *)
  get : t -> bool;
  set : t -> bool -> t;
  flag : (string * string) option;
      (** the [--no-...] flag (name without dashes) that clears it, and
          the flag's doc; switches that share a flag clear together *)
}

val switches : switch list
(** The ten switches, in header-bit order. *)
