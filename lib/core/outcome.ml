open Pbo

type status =
  | Optimal
  | Satisfiable
  | Unsatisfiable
  | Unknown

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
  counters : counters;
  elapsed : float;
}

(* The one place outcome counters are derived from the telemetry registry:
   every driver (bsolo, linear search, MILP) publishes under the same
   names and snapshots through here. *)
let counters_of_registry reg =
  let c name = Option.value ~default:0 (Telemetry.Registry.find_counter reg name) in
  {
    decisions = c "engine.decisions";
    propagations = c "engine.propagations";
    conflicts = c "engine.conflicts";
    bound_conflicts = c "engine.bound_conflicts";
    learned = c "engine.learned";
    restarts = c "engine.restarts";
    lb_calls = c "search.lb_calls";
    nodes = c "search.nodes";
  }

let counters_to_alist c =
  [
    "decisions", c.decisions;
    "propagations", c.propagations;
    "conflicts", c.conflicts;
    "bound_conflicts", c.bound_conflicts;
    "learned", c.learned;
    "restarts", c.restarts;
    "lb_calls", c.lb_calls;
    "nodes", c.nodes;
  ]

let status_name = function
  | Optimal -> "OPTIMAL"
  | Satisfiable -> "SATISFIABLE"
  | Unsatisfiable -> "UNSATISFIABLE"
  | Unknown -> "UNKNOWN"

let best_cost t =
  match t.best with
  | None -> None
  | Some (_, c) -> Some c

let pp ppf t =
  Format.fprintf ppf "%s" (status_name t.status);
  (match t.best with
  | None -> ()
  | Some (_, c) -> Format.fprintf ppf " cost=%d" c);
  Format.fprintf ppf
    " (%.3fs, %d decisions, %d conflicts, %d bound conflicts, %d lb calls)"
    t.elapsed t.counters.decisions t.counters.conflicts t.counters.bound_conflicts
    t.counters.lb_calls
