(** Bounded-variable revised simplex over a sparse LU of the basis,
    with persistent state: a dual simplex for warm re-solves over a
    two-phase primal cold start.

    Solves

      minimize    c x
      subject to  row_i :  a_i x (>= | <= | =) b_i,   i = 1..m
                  lower_j <= x_j <= upper_j

    Column bounds may be infinite ([neg_infinity] / [infinity]).  This is the LP
    substrate of the paper's LPR lower bound (Section 3.1) and of the MILP
    baseline standing in for CPLEX.

    {!Incremental} is the only entry point.  It keeps a basis and its
    factorization alive between calls and re-optimizes after
    column-bound and row edits with a dual simplex from the previous
    basis.  Its cold start (first call, and after a lost basis) is the
    textbook bounded-variable two-phase primal: each row gets a
    slack/surplus column, phase 1 minimizes the sum of artificial
    columns from the all-artificial basis, nonbasic variables rest at
    one of their bounds, and the ratio test allows bound flips.  A
    one-shot solve is [reoptimize (create p)].

    Layout.  Over [n] structural columns and [m] rows there are [n + 2m]
    columns: structural, one slack per row ([Ge] coefficient -1, [Le]
    +1, [Eq] +1 with both bounds 0, so it never enters), then one
    artificial per row, [+-e_i] with the sign of the row's residual at
    the cold start.  The structural matrix is stored sparse, by rows and
    by columns; slack and artificial columns stay implicit.  No tableau
    is formed: the basis matrix is held as a sparse LU (Markowitz order
    with threshold partial pivoting, {!Lu}) plus one product-form eta
    per basis change since.

    Iterations.  A dual iteration does one BTRAN for the leaving
    position's row of B^-1, prices that row against A over only the
    rows where it is nonzero (the pivot row), and one FTRAN for the
    entering column; a primal iteration does the same three for its
    pivot.  Reduced costs move along the pivot row.  A warm start
    recomputes the duals and reduced costs (one BTRAN and one pass over
    A) and the basic values (one pass over A and one FTRAN).

    Refactorization.  The LU is rebuilt from A after a fixed number of
    eta updates, or sooner when the FTRAN and pivot-row values of a
    pivot disagree; the basis and vertex are kept and the basic values
    recomputed.  [add_row] and [drop_row] splice the row into or out of
    the stored matrix and the basis in place, and rebuild the LU at the
    next solve.  The cold start's artificial basis is diagonal
    and needs no factorization.

    Pivot rules.  The dual simplex leaves on the basic variable of
    largest bound violation and enters the eligible column of least
    |rc_j / alpha_j|, ties within [eps] going to the larger |alpha_j|;
    the primal uses Dantzig pricing, then Bland's rule past half the
    iteration budget (the first eligible column enters, and ratio-test
    ties leave by smallest column index); the reduced costs are recomputed every 100
    pivots; every tolerance is [eps] (default [1e-7]). *)

module Lu = Lu
(** The basis factorization, for its own tests. *)

type rel =
  | Ge
  | Le
  | Eq

type row = {
  coeffs : (int * float) array;  (** column index, coefficient *)
  rel : rel;
  rhs : float;
}

type problem = {
  ncols : int;
  lower : float array;  (** length [ncols] *)
  upper : float array;  (** length [ncols] *)
  objective : float array;  (** length [ncols] *)
  rows : row array;
}

type solution = {
  value : float;  (** objective at the optimum *)
  x : float array;  (** primal values, length [ncols] *)
  row_activity : float array;  (** [a_i x] per row, length [m] *)
  duals : float array;
      (** simplex multipliers per row at the optimum, [y = c_B B^-1]: a
          [Ge] row's dual is [>= 0], a [Le] row's [<= 0], an [Eq] row's
          of either sign, and only tight rows have nonzero duals.  The
          reduced costs [c - yA] then have the sign of the bound each
          column rests on, and [y b + sum_j min over the box of
          (c - yA)_j x_j] equals [value].  E.g. [min x + 2y] subject to
          [x + y >= 1] and [x <= 0.5] gives the duals [(2, -1)]. *)
}

type outcome =
  | Optimal of solution
  | Infeasible of (int * float) list
      (** rows with non-zero phase-1 dual (cold solve) or non-zero
          Farkas-ray entry (dual simplex), each paired with that
          multiplier: an infeasible subsystem witness.  It certifies in
          one of its two orientations, [mu = w] or [mu = -w]: with
          [mu_i >= 0] on [Ge] rows and [mu_i <= 0] on [Le] rows, the
          combined row [sum_i mu_i a_i x >= sum_i mu_i b_i] cannot be met
          over the box.  Both orientations occur, so a consumer needing
          the nonnegative Farkas combination must try both. *)
  | Unbounded
  | Iteration_limit of float option
      (** gave up; [Some z] is a safe dual (Lagrangian) lower bound on the
          optimum valid at the point the solver stopped, [None] when no
          dual-feasible iterate was available *)

type stats = {
  mutable calls : int;  (** [Incremental.reoptimize] invocations *)
  mutable iterations : int;  (** simplex steps, bound flips included *)
  mutable phase1_iters : int;
  mutable phase2_iters : int;  (** phase-2 primal and dual-simplex steps *)
  mutable pivots : int;  (** basis changes only *)
  mutable refreshes : int;  (** full reduced-cost recomputations *)
  mutable refactors : int;  (** LU factorizations of the basis *)
}

val stats : unit -> stats
(** Fresh all-zero record.  Pass the same record to successive
    [reoptimize] calls to accumulate across them; the library itself
    stays free of global state. *)

(** Persistent LP state for sequences of re-solves that differ in
    column bounds and in appended or deleted rows — the B&B
    lower-bounding and cutting-plane workload.  After edits,
    {!reoptimize} restores dual feasibility on the previous basis
    (reduced-cost refresh + nonbasic repositioning) and runs a
    bounded-variable dual simplex; it falls back to a cold two-phase
    primal when no usable basis exists, when the warm restart cannot
    reach a dual-feasible resting point, or when the factorization turns
    out singular. *)
module Incremental : sig
  type t

  type info = {
    warm : bool;  (** last call reused the previous basis *)
    iters : int;  (** simplex iterations spent by the last call *)
  }

  val create : ?eps:float -> problem -> t
  (** Snapshot [problem] (bounds are copied).  The first [reoptimize] is
      necessarily cold.  [eps] defaults to [1e-7]. *)

  val fix : t -> int -> float -> unit
  (** [fix t j v] pins column [j] to value [v] (both bounds). *)

  val unfix : t -> int -> unit
  (** Restore column [j]'s bounds from the base problem. *)

  val nrows : t -> int
  (** Current number of rows in the (edited) base problem. *)

  val add_row : t -> row -> int
  (** Append a row to the base problem, returning its row index.  The
      current basis is preserved (the new row's slack enters it), so a
      following {!reoptimize} warm-starts: dual feasibility is
      unaffected by the zero-cost slack and any primal violation of the
      new row is repaired by the dual simplex — exactly the
      cutting-plane workload.  With no usable basis the edit only
      touches the stored problem and the next solve is cold. *)

  val drop_row : t -> int -> unit
  (** Remove row [i] from the base problem.  Indices of later rows shift
      down by one.  The basis is kept warm whenever the row's slack is
      basic, at any position (deleting the row with the slack's unit
      column leaves a nonsingular basis), and when a nonbasic slack can
      be pivoted into the basis first — [Eq] rows included, whose slack
      column is a unit column fixed at 0.  It is dropped (cold solve on
      the next [reoptimize]) when the row's artificial is basic or the
      slack's transformed column has no usable pivot. *)

  val reoptimize :
    ?max_iters:int -> ?should_stop:(unit -> bool) -> ?stats:stats -> t -> outcome
  (** Re-solve under the current bounds.  [Infeasible] witnesses index
      rows of the base problem.  Calls that hit the iteration limit
      report [Iteration_limit (Some z)] with the dual objective reached,
      which is a valid lower bound under the current bounds.

      [max_iters] defaults to [200 + 20 * (m + ncols)].  When [stats] is
      given, the call's work figures are added to it on every exit path.
      [should_stop] is polled every 64 iterations; when it fires, the
      call exits through the {!Iteration_limit} path, so a cancelled
      solve still reports the safe truncated dual bound when one is
      available.  This is the cooperative-cancellation poll point for
      long LP solves (parallel portfolio stop flag, wall-clock
      deadlines). *)

  val last_info : t -> info
  (** Telemetry for the most recent [reoptimize] call. *)

  val drop_fallbacks : t -> int
  (** [drop_row] calls so far that held a basis but could not keep it
      (the row's artificial basic, or no usable pivot for its slack), so
      the next [reoptimize] solves cold. *)

  val invalidate : t -> unit
  (** Drop the stored basis; the next [reoptimize] solves cold. *)
end
