(** Named phases of a solver run.

    A closed enumeration rather than free strings, so {!Timer} can
    accumulate into a flat array without hashing on the hot path. *)

type t =
  | Preprocess
  | Propagate
  | Analyze
  | Reduce_db
  | Lower_bound
  | Simplex
  | Subgradient
  | Cut_generation
  | Separate  (** LP cut separation, inside [Lower_bound] *)

val count : int
(** Number of phases; [index] is a bijection onto [0 .. count - 1]. *)

val index : t -> int
val name : t -> string

val coarse : t -> bool
(** Whether the phase is coarse enough for one span per entry, which
    the {!Timer} writes on exit.  The
    hot inner-search phases (propagate, analyze) and cut separation
    (one or two entries per LP bound, within its [lower_bound] span)
    answer [false]: their time shows only in the exact {!Timer} phase
    table. *)

val all : t list
(** Every phase, in [index] order. *)
