open Pbo

(** Result of a lower-bound evaluation at a search node. *)

(** The rows behind a bound: their literals currently false make up the
    explanation [omega_pl] (eq. 9 and Section 4.3). *)
type rows = {
  cids : Engine.Solver_core.cid list;  (** stored constraints *)
  cuts : Constr.t list;  (** LP cut rows, which the engine's store does not hold *)
  keep : (Lit.t -> bool) option;
      (** a filter on those literals (LGR drops the flips that cannot
          help, Section 4.3); [None] keeps them all *)
}

type t = {
  value : int;
      (** lower bound on the cost of satisfying the not-yet-satisfied
          constraints (the paper's [P.lower]); always [>= 0].  The node
          prunes when [path + value >= upper]. *)
  omega_rows : rows Lazy.t;
      (** the rows explaining [value]: any assignment beating the bound
          must flip one of their currently-false literals.  Forced only
          when a bound conflict actually fires. *)
  branch_hint : Lit.var option;
      (** LP-guided branching suggestion: unassigned variable whose LP
          relaxation value is fractional and closest to 0.5 (Section 5). *)
  cert : Proof.cert Lazy.t;
      (** multipliers justifying [value] for proof logging: LP duals of
          the referenced rows (LPR), knapsack-cover critical ratios
          (MIS), subgradient multipliers (LGR), or the Farkas witness
          on infeasibility.  [Proof.Cert_path] when no multipliers are
          available (plain bounds, truncated LP solves) — the logger
          then falls back to the path-only certificate, and in proof
          mode an uncertifiable prune is skipped.  Forced only when a
          bound conflict fires under [--proof]. *)
}

val none : t
(** The trivial bound: 0, no rows, no hint. *)

val omega_pl : Engine.Solver_core.t -> t -> Lit.t list
(** The explanation [omega_pl] of a bound under the engine's current
    assignment: the false literals of its rows that pass [keep], each
    once, ascending ({!Engine.Solver_core.omega}).  The solver learns
    from {!omega_bc} only; this entry point exists so that tests can
    compare a bound's own explanation against a reference. *)

val omega_bc : Engine.Solver_core.t -> t -> Lit.t list
(** The bound-conflict clause [omega_bc = omega_pp ∪ omega_pl] (eqs. 8,
    9): {!omega_pl} together with the negated cost literals of the
    path, each once, ascending.  Built in one pass over the engine's
    reused marks. *)

val trusted_value : float -> int
(** Round a float relaxation optimum to a usable integer lower bound:
    [ceil (v - 1e-6)], clamped to be non-negative. *)
