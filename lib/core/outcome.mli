open Pbo

(** Result of a solver run. *)

type status =
  | Optimal  (** best model proved optimal *)
  | Satisfiable  (** satisfaction instance solved *)
  | Unsatisfiable
  | Unknown  (** a limit was reached *)

type counters = {
  decisions : int;
  propagations : int;
  conflicts : int;
  bound_conflicts : int;
  learned : int;
  restarts : int;
  lb_calls : int;
  nodes : int;
}

type t = {
  status : status;
  best : (Model.t * int) option;
      (** best model and its total cost (objective offset included);
          for satisfaction instances the cost is 0.  The model is a
          checked one, whether the run found it or imported it from a
          portfolio peer ({!Options.external_incumbent}), so an
          [Optimal] outcome always holds its witness. *)
  counters : counters;
  elapsed : float;  (** wall-clock seconds *)
}

val counters_of_registry : Telemetry.Registry.t -> counters
(** Snapshot of the run counters published in a telemetry registry under
    the shared names ([engine.decisions], [search.nodes], ...).  Missing
    entries read as 0, so partial instrumenters (e.g. the MILP driver,
    which has no propagation) snapshot through the same path. *)

val counters_to_alist : counters -> (string * int) list
(** Field names and values, for uniform export (reports, tests). *)

val status_name : status -> string
val best_cost : t -> int option
val pp : Format.formatter -> t -> unit
