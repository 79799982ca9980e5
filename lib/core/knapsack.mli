open Pbo

(** Cuts derived from the objective when a new incumbent is found
    (Section 5 of the paper).

    Each cut is one fixed sum over objective literals whose bound
    tightens with the incumbent, so it is prepared once per problem as a
    {!row}; {!cut} then yields the cut at any incumbent in constant time
    while no coefficient saturates. *)

type row = private {
  cid : int option;
      (** [None] for the knapsack row (10); for an inference (11)-(13),
          the index into [Problem.constraints] of the cardinality
          constraint it came from — the reference a proof log's [d] step
          names so the checker can recompute the same cut
          ({!Proof.cardinality_cut}). *)
  mandatory : int;  (** [V] of eq. (12); [0] for the knapsack row *)
  family : Constr.family;  (** the sum of the cut's cost literals *)
}

val knapsack_row : Problem.t -> row
(** The knapsack constraint (10): [sum c_j l_j <= upper - 1] over the
    objective's cost literals. *)

val cardinality_rows : Problem.t -> row list
(** The inferences (11)-(13), in constraint order: for every
    cardinality constraint [sum_{j in K} l_j >= U] of the problem, any
    solution pays at least [V] = sum of the [U] smallest literal costs
    within [K], so [sum_{j not in K} c_j l_j <= upper - 1 - V].  Only
    constraints with [V > 0] have a row. *)

val cut : row -> upper:int -> Constr.norm
(** The row's cut at incumbent cost [upper] ({e without} the objective
    offset). *)
