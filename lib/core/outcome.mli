open Pbo

(** Result of a solver run. *)

type status =
  | Optimal  (** best model proved optimal *)
  | Satisfiable  (** satisfaction instance solved *)
  | Unsatisfiable
  | Unknown  (** a limit was reached *)

type t = {
  status : status;
  best : (Model.t * int) option;
      (** best model and its total cost (objective offset included);
          for satisfaction instances the cost is 0.  The model is a
          checked one, whether the run found it or imported it from a
          portfolio peer ({!Options.external_incumbent}), so an
          [Optimal] outcome always holds its witness. *)
  counters : (string * int) list;
      (** the run's registry snapshot ({!Telemetry.Registry.counters}):
          every counter under its own name ([engine.decisions],
          [search.nodes], ...), sorted by name *)
  elapsed : float;  (** wall-clock seconds *)
}

val counter : t -> string -> int
(** [counter o name] reads one counter of the snapshot; a counter the
    run never declared reads as 0. *)

val status_name : status -> string
val best_cost : t -> int option
val pp : Format.formatter -> t -> unit
