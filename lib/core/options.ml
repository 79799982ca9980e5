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
  bound_conflict_learning : bool;
  knapsack_cuts : bool;
  cardinality_inference : bool;
  lp_guided_branching : bool;
  preprocess : bool;
  presolve : bool;
  cuts : cuts_mode;
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
  external_incumbent : (unit -> (int * Pbo.Model.t * string) option) option;
  should_stop : (unit -> bool) option;
  on_incumbent : (Pbo.Model.t -> int -> unit) option;
  decision_oracle : (unit -> Pbo.Lit.t option) option;
  proof : Proof.t option;
}

let default =
  {
    lb_method = Lpr;
    bound_conflict_learning = true;
    knapsack_cuts = true;
    cardinality_inference = true;
    lp_guided_branching = true;
    preprocess = true;
    presolve = true;
    cuts = Cuts_tree;
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

(* --- the table every other copy of the settings derives from ------------- *)

let name table v = fst (List.find (fun (_, v') -> v' = v) table)
let lb_methods = [ "plain", Plain; "mis", Mis; "lgr", Lgr; "lpr", Lpr ]

let cuts_modes = [ "off", Cuts_off; "root", Cuts_root; "tree", Cuts_tree ]

let learnings =
  [ "clauses", Clauses; "cardinality", Cardinality; "cutting-planes", Cutting_planes ]

let presets = [ "bsolo", default; "pbs", pbs; "galena", galena ]

let lb_method_name = function
  | Plain -> "plain"
  | m -> String.uppercase_ascii (name lb_methods m)

type switch = {
  key : string;
  bit : int;
  get : t -> bool;
  set : t -> bool -> t;
  flag : (string * string) option;
}

let switch ?flag key bit get set = { key; bit; get; set; flag }
let no_cuts = ("no-cuts", "Disable the knapsack and cardinality incumbent cuts (Section 5).")

let switches =
  [
    switch "bound_conflict_learning" 0x1
      (fun o -> o.bound_conflict_learning) (fun o b -> { o with bound_conflict_learning = b });
    switch "knapsack_cuts" 0x2 ~flag:no_cuts
      (fun o -> o.knapsack_cuts) (fun o b -> { o with knapsack_cuts = b });
    switch "cardinality_inference" 0x4 ~flag:no_cuts
      (fun o -> o.cardinality_inference) (fun o b -> { o with cardinality_inference = b });
    switch "lp_guided_branching" 0x8
      ~flag:("no-lp-branching", "Disable LP-guided branching (Section 5).")
      (fun o -> o.lp_guided_branching) (fun o b -> { o with lp_guided_branching = b });
    switch "preprocess" 0x10
      ~flag:("no-preprocess", "Disable probing preprocessing.")
      (fun o -> o.preprocess) (fun o b -> { o with preprocess = b });
    switch "constraint_strengthening" 0x20
      (fun o -> o.constraint_strengthening) (fun o b -> { o with constraint_strengthening = b });
    switch "restarts" 0x40 (fun o -> o.restarts) (fun o b -> { o with restarts = b });
    switch "lb_adaptive" 0x100
      ~flag:
        ( "no-adaptive-lb",
          "Disable the adaptive lower-bound schedule, which evaluates the bound only at every \
           2nd, 4th or 8th node while evaluations keep failing to prune; the bound is then \
           evaluated at every node." )
      (fun o -> o.lb_adaptive) (fun o b -> { o with lb_adaptive = b });
    switch "reduce_db" 0x200 (fun o -> o.reduce_db) (fun o b -> { o with reduce_db = b });
    switch "presolve" 0x800
      ~flag:
        ( "no-presolve",
          "Disable the exact constraint-level presolve (subset-sum coefficient tightening and \
           dominated-constraint removal)." )
      (fun o -> o.presolve) (fun o b -> { o with presolve = b });
  ]
