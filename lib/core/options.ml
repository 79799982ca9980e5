type lb_method =
  | Plain
  | Mis
  | Lgr
  | Lpr

type cuts_mode =
  | Cuts_off
  | Cuts_root
  | Cuts_tree

type learning =
  | Clauses
  | Cardinality
  | Cutting_planes

type t = {
  lb_method : lb_method;
  bcp : Engine.Solver_core.bcp_mode;
  bound_conflict_learning : bool;
  knapsack_cuts : bool;
  cardinality_inference : bool;
  lp_guided_branching : bool;
  preprocess : bool;
  presolve : bool;
  cuts : cuts_mode;
  cut_rounds : int;
  constraint_strengthening : bool;
  restarts : bool;
  learning : learning;
  lgr_iters : int;
  lb_adaptive : bool;
  reduce_db : bool;
  conflict_limit : int option;
  node_limit : int option;
  time_limit : float option;
  telemetry : Telemetry.Ctx.t option;
  external_incumbent : (unit -> (int * string) option) option;
  should_stop : (unit -> bool) option;
  on_incumbent : (Pbo.Model.t -> int -> unit) option;
  decision_oracle : (unit -> Pbo.Lit.t option) option;
  proof : Proof.t option;
}

let default =
  {
    lb_method = Lpr;
    bcp = Engine.Solver_core.Hybrid;
    bound_conflict_learning = true;
    knapsack_cuts = true;
    cardinality_inference = true;
    lp_guided_branching = true;
    preprocess = true;
    presolve = true;
    cuts = Cuts_tree;
    cut_rounds = 2;
    constraint_strengthening = true;
    restarts = false;
    learning = Clauses;
    lgr_iters = 50;
    lb_adaptive = true;
    reduce_db = true;
    conflict_limit = None;
    node_limit = None;
    time_limit = None;
    telemetry = None;
    external_incumbent = None;
    should_stop = None;
    on_incumbent = None;
    decision_oracle = None;
    proof = None;
  }

let with_lb m = { default with lb_method = m }

let pbs =
  {
    default with
    lb_method = Plain;
    restarts = true;
    cardinality_inference = false;
    presolve = false;
    constraint_strengthening = false;
    cuts = Cuts_off;
    lp_guided_branching = false;
  }

let galena = { pbs with learning = Cardinality }

let lb_method_name = function
  | Plain -> "plain"
  | Mis -> "MIS"
  | Lgr -> "LGR"
  | Lpr -> "LPR"

let bcp_mode_name = function
  | Engine.Solver_core.Watched -> "watched"
  | Engine.Solver_core.Counting -> "counting"
  | Engine.Solver_core.Hybrid -> "hybrid"

let bcp_mode_of_string = function
  | "watched" -> Some Engine.Solver_core.Watched
  | "counting" -> Some Engine.Solver_core.Counting
  | "hybrid" -> Some Engine.Solver_core.Hybrid
  | _ -> None

let cuts_mode_name = function
  | Cuts_off -> "off"
  | Cuts_root -> "root"
  | Cuts_tree -> "tree"

let cuts_mode_of_string = function
  | "off" -> Some Cuts_off
  | "root" -> Some Cuts_root
  | "tree" -> Some Cuts_tree
  | _ -> None
