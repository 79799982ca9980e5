open Pbo
module Json = Telemetry.Json

type incumbent = {
  at : float;
  cost : int;
}

let schema = "bsolo-run-report/1"

let status_json (o : Outcome.t) =
  [
    "status", Json.String (Outcome.status_name o.status);
    ( "cost",
      match Outcome.best_cost o with
      | None -> Json.Null
      | Some c -> Json.Int c );
    (* the proved lower bound: only an Optimal run proves one, its cost *)
    ( "proved_lb",
      match o.status, o.best with
      | Outcome.Optimal, Some (_, c) -> Json.Int c
      | _ -> Json.Null );
    "elapsed", Json.Float o.elapsed;
  ]

let pstats_json p =
  let s = Pstats.of_problem p in
  Json.Obj
    [
      "nvars", Json.Int s.Pstats.nvars;
      "nconstraints", Json.Int s.Pstats.nconstraints;
      "nclauses", Json.Int s.Pstats.nclauses;
      "ncardinality", Json.Int s.Pstats.ncardinality;
      "ngeneral", Json.Int s.Pstats.ngeneral;
      "nterms", Json.Int s.Pstats.nterms;
      "max_degree", Json.Int s.Pstats.max_degree;
      "max_coeff", Json.Int s.Pstats.max_coeff;
      "cost_terms", Json.Int s.Pstats.cost_terms;
      "cost_sum", Json.Int s.Pstats.cost_sum;
      "satisfaction", Json.Bool s.Pstats.satisfaction;
    ]

let options_json (o : Options.t) =
  let opt_int = function None -> Json.Null | Some i -> Json.Int i in
  Json.Obj
    ([
       "lb_method", Json.String (Options.lb_method_name o.lb_method);
       "cuts", Json.String (Options.name Options.cuts_modes o.cuts);
       "learning", Json.String (Options.name Options.learnings o.learning);
       "lgr_iters", Json.Int o.lgr_iters;
     ]
    @ List.map (fun (s : Options.switch) -> s.key, Json.Bool (s.get o)) Options.switches
    @ [
        "conflict_limit", opt_int o.conflict_limit;
        "node_limit", opt_int o.node_limit;
        "time_limit", Option.fold ~none:Json.Null ~some:(fun t -> Json.Float t) o.time_limit;
      ])

let histogram_json h =
  Json.Obj
    [
      "total", Json.Int (Telemetry.Histogram.total h);
      "max", Json.Int (Telemetry.Histogram.max_value h);
      "mean", Json.Float (Telemetry.Histogram.mean h);
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, count) -> Json.List [ Json.Int lo; Json.Int hi; Json.Int count ])
             (Telemetry.Histogram.snapshot h)) );
    ]

let telemetry_json (tel : Telemetry.Ctx.t) =
  [
    ( "counters",
      Json.Obj (List.map (fun (k, v) -> k, Json.Int v) (Telemetry.Registry.counters tel.registry))
    );
    ( "gauges",
      Json.Obj (List.map (fun (k, v) -> k, Json.Float v) (Telemetry.Registry.gauges tel.registry))
    );
    ( "phases",
      Json.Obj
        (List.map
           (fun (p, s) -> Telemetry.Phase.name p, Json.Float s)
           (Telemetry.Timer.snapshot tel.timer)) );
    ( "histograms",
      Json.Obj
        (List.map
           (fun h -> Telemetry.Histogram.name h, histogram_json h)
           (Telemetry.Registry.histograms tel.registry)) );
  ]

let make ?instance ?engine ?run_id ?started ?problem ?options ?(incumbents = [])
    ~telemetry (outcome : Outcome.t) =
  let opt_field name v f = match v with None -> [] | Some v -> [ name, f v ] in
  Json.Obj
    (("schema", Json.String schema)
     :: (opt_field "instance" instance (fun s -> Json.String s)
        @ opt_field "engine" engine (fun s -> Json.String s)
        @ opt_field "run_id" run_id (fun s -> Json.String s)
        @ opt_field "started_at" started (fun t -> Json.Float t))
    @ status_json outcome
    @ opt_field "pstats" problem pstats_json
    @ opt_field "options" options options_json
    @ telemetry_json telemetry
    @ [
        ( "incumbents",
          Json.List
            (List.map
               (fun i -> Json.Obj [ "t", Json.Float i.at; "cost", Json.Int i.cost ])
               incumbents) );
      ])

let to_string report = Json.to_string report

let write_file path report =
  let oc = open_out path in
  output_string oc (Json.to_string report);
  output_char oc '\n';
  close_out oc

(* --- reading back ---------------------------------------------------------- *)

let phases_of_json json =
  match Json.member "phases" json with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> k, f) (Json.to_float v))
      fields
  | Some _ | None -> []
