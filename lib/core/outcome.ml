open Pbo

type status =
  | Optimal
  | Satisfiable
  | Unsatisfiable
  | Unknown

type t = {
  status : status;
  best : (Model.t * int) option;
  counters : (string * int) list;
  elapsed : float;
}

let counter t name = Option.value ~default:0 (List.assoc_opt name t.counters)

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
    t.elapsed (counter t "engine.decisions") (counter t "engine.conflicts")
    (counter t "engine.bound_conflicts") (counter t "search.lb_calls")
