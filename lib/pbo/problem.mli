(** Pseudo-Boolean optimization problem instances.

    An instance is a set of normalized {!Constr.t} constraints over
    variables [0 .. nvars - 1], optionally together with a linear
    objective to minimize.  The objective is normalized to positive costs
    attached to literals plus a constant offset: the solver pays
    [cost] whenever the associated literal is assigned true.  A problem
    without an objective is a PB *satisfaction* instance (the paper's
    acc-tight family). *)

type cost_term = {
  cost : int;  (** always [> 0] *)
  lit : Lit.t;
}

type objective = {
  cost_terms : cost_term array;  (** pairwise distinct variables *)
  offset : int;  (** constant added to any assignment's cost *)
}

type t = private {
  nvars : int;
  constraints : Constr.t array;
  objective : objective option;
  trivially_unsat : bool;
      (** set when a constraint normalized to [Trivial_false] *)
}

val max_variable_index : int
(** [2^24], the largest 1-based variable index the file readers
    ({!Opb}, {!Dimacs}) accept.  Variables are allocated densely up to
    the largest index a file mentions, so a huge index would allocate
    (or fail to allocate) arrays of that size before any constraint is
    read; the cap is far above any real instance. *)

val nvars : t -> int
val constraints : t -> Constr.t array
val objective : t -> objective option
val is_satisfaction : t -> bool
val trivially_unsat : t -> bool

val max_cost_sum : t -> int
(** Sum of all objective costs: cost of the worst assignment, not counting
    the offset.  [0] for satisfaction instances. *)

val cost_of_var : t -> Lit.var -> (int * Lit.t) option
(** Cost term attached to a variable, if any. *)

val with_constraints : t -> Constr.t list -> t
(** A copy of the problem with extra (already normalized) constraints. *)

val pp : Format.formatter -> t -> unit

(** Mutable builder used by parsers and generators. *)
module Builder : sig
  type problem := t
  type t

  val create : ?nvars:int -> unit -> t
  (** [create ~nvars ()] pre-declares [nvars] variables; more can be added
      with {!fresh_var}. *)

  val fresh_var : t -> Lit.var
  val nvars : t -> int

  val add_ge : t -> (int * Lit.t) list -> int -> unit
  (** Adds [sum terms >= rhs] through {!Constr.make_ge}, so raises
      [Invalid_argument] on a coefficient beyond
      {!Constr.coefficient_limit} or a right-hand side beyond
      {!Constr.degree_limit}; so do [add_le] and [add_eq]. *)

  val add_le : t -> (int * Lit.t) list -> int -> unit
  val add_eq : t -> (int * Lit.t) list -> int -> unit
  val add_clause : t -> Lit.t list -> unit
  val add_cardinality : t -> Lit.t list -> int -> unit
  val add_norm : t -> Constr.norm -> unit

  val set_objective : t -> ?offset:int -> (int * Lit.t) list -> unit
  (** Declare the minimization objective.  Raw costs may be negative or
      mention both polarities; they are normalized to positive literal
      costs and an offset.  Raises [Invalid_argument] if called twice,
      and ["Problem.Builder.set_objective: cost too large"] when a raw or
      normalized cost is beyond {!Constr.coefficient_limit} ([2^40]) or
      the normalized costs sum beyond {!Constr.degree_limit} ([2^42]):
      the incumbent cuts (paper eqs. 10-13) are constraints over these
      costs, and no constraint can hold larger ones. *)

  val build : t -> problem
end
