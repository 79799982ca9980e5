(** Normalized linear pseudo-Boolean constraints.

    A constraint is kept in the normal form

      [a_1 l_1 + ... + a_n l_n >= d]

    where every coefficient [a_i] is a positive integer, the literals
    mention pairwise distinct variables, every [a_i <= d] (saturation), the
    coefficients have no common divisor with the degree beyond the implied
    rounding, the degree [d >= 1], and terms are sorted by decreasing
    coefficient (ties broken by variable index).  Every linear PB
    constraint over arbitrary integer coefficients and both relations can
    be rewritten into at most two such constraints. *)

type term = {
  coeff : int;  (** always [> 0] *)
  lit : Lit.t;
}

type t = private {
  terms : term array;
  degree : int;
}

(** Result of normalizing a raw constraint. *)
type norm =
  | Trivial_true  (** satisfied by every assignment *)
  | Trivial_false  (** satisfied by no assignment *)
  | Constr of t

type relation =
  | Ge
  | Le
  | Eq

val coefficient_limit : int
(** [2^40]: the largest coefficient magnitude {!make_ge} accepts. *)

val degree_limit : int
(** [2^42]: the largest right-hand side magnitude {!make_ge} accepts. *)

val make_ge : (int * Lit.t) list -> int -> norm
(** [make_ge terms rhs] normalizes [sum terms >= rhs].  Raw coefficients
    may be negative, mention repeated variables or both polarities.
    Raises [Invalid_argument] on coefficients beyond
    {!coefficient_limit} or a right-hand side beyond {!degree_limit} (they
    could overflow slack arithmetic). *)

val of_relation : (int * Lit.t) list -> relation -> int -> norm list
(** Like {!make_ge} but for any relation; [Eq] yields two results. *)

(** {1 Constraint families}

    The incumbent cuts of the paper (eqs. 10 and 13) are one fixed sum
    [sum a_i l_i <= r] whose bound [r] tightens at every new incumbent.
    A family normalizes the sum once, so that each bound costs a little
    arithmetic instead of a full {!make_ge}. *)

type family

val family : (int * Lit.t) list -> family
(** Prepares [sum terms <= r] for repeated queries over [r].  Positive
    coefficients on pairwise distinct variables take the fast path;
    anything else is accepted and answered by {!of_relation}. *)

val family_without : family -> (Lit.var -> bool) -> family
(** [family_without f drop] is {!family} of [f]'s terms without those
    whose variable satisfies [drop].  On the fast path it filters the
    prepared normal form and divides by the remaining gcd, in time
    linear in [f]'s size, without a merge or a sort. *)

val family_at : family -> int -> norm
(** [family_at f r] is the single result of [of_relation terms Le r].
    While no coefficient saturates ([r] at most the coefficient sum
    minus the largest coefficient) the result is computed in constant
    time and shares one term array across every [r]; otherwise it is
    {!of_relation}'s own.  A fast-path family answers [r] at or above
    its coefficient sum, or below 0, with the trivial result whatever
    the magnitude of [r]. *)

val with_degree : t -> int -> t
(** [with_degree c d] is [c] with degree [d], sharing [c]'s term array.
    Raises [Invalid_argument] unless [d >= max_coeff c] (so the result
    is still saturated) and [d >= 1]. *)

val clause : Lit.t list -> norm
(** [clause lits] is the propositional clause "at least one of [lits]". *)

val clause_init : int -> (int -> Lit.t) -> t
(** [clause_init n lit] is the clause over [lit 0], ..., [lit (n - 1)],
    which must ascend over pairwise distinct variables: they are then
    its normal form, the constraint {!clause} would build from them. *)

val cardinality : Lit.t list -> int -> norm
(** [cardinality lits k] requires at least [k] of [lits] to be true. *)

val terms : t -> term array
val degree : t -> int
val size : t -> int

val is_clause : t -> bool
(** In normal form, a constraint is a clause iff its degree is 1. *)

val is_cardinality : t -> bool
(** Holds iff all coefficients are equal (hence equal to 1 in normal
    form); includes clauses. *)

val max_coeff : t -> int
(** Largest coefficient; [terms] being sorted, this is the first one. *)

val coeff_sum : t -> int
(** Sum of all coefficients. *)

val min_true_count : t -> int
(** Smallest number of true literals in any satisfying assignment: the
    least [k] such that the [k] largest coefficients sum to at least the
    degree.  This is the cardinality reduction used by Galena-style
    learning. *)

val fold_lits : (Lit.t -> 'a -> 'a) -> t -> 'a -> 'a

val slack_under : (Lit.t -> Value.t) -> t -> int
(** [slack_under value c] is [sum of a_i over literals not false] minus
    the degree.  Negative slack means the constraint is violated under
    every extension of the partial assignment. *)

val is_satisfied_under : (Lit.t -> Value.t) -> t -> bool
(** Holds when the already-true literals alone reach the degree. *)

val satisfied_by : (Lit.t -> bool) -> t -> bool
(** Total-assignment satisfaction check. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
