(* Shared solver roster and table formatting for the benchmark harness. *)

type solver = {
  name : string;
  run : time_limit:float -> ?telemetry:Telemetry.Ctx.t -> Pbo.Problem.t -> Bsolo.Outcome.t;
}

let solve_with (base : Bsolo.Options.t) ~time_limit ?telemetry problem =
  Bsolo.Solver.solve ~options:{ base with time_limit = Some time_limit; telemetry } problem

let bsolo_with lb = solve_with (Bsolo.Options.with_lb lb)
let pbs = solve_with Bsolo.Options.pbs
let galena = solve_with Bsolo.Options.galena

let cplex_like ~time_limit ?telemetry problem =
  let options = { Bsolo.Options.default with time_limit = Some time_limit; telemetry } in
  Milp.Branch_and_bound.solve ~options problem

let baselines = [ { name = "pbs"; run = pbs }; { name = "galena"; run = galena }; { name = "cplex*"; run = cplex_like } ]

let bsolo_variants =
  [
    { name = "plain"; run = bsolo_with Bsolo.Options.Plain };
    { name = "MIS"; run = bsolo_with Bsolo.Options.Mis };
    { name = "LGR"; run = bsolo_with Bsolo.Options.Lgr };
    { name = "LPR"; run = bsolo_with Bsolo.Options.Lpr };
  ]

let all = baselines @ bsolo_variants

(* Run one cell under a fresh telemetry context and embed the full run
   report, so a benchmark sweep leaves per-(solver, instance) evidence
   behind instead of just the formatted table. *)
let run_with_report (s : solver) ~time_limit ~instance problem =
  let tel = Telemetry.Ctx.create ~timing:true () in
  let outcome = s.run ~time_limit ~telemetry:tel problem in
  let report =
    Bsolo.Report.make ~instance ~engine:s.name ~problem ~telemetry:tel outcome
  in
  outcome, report

let solved (o : Bsolo.Outcome.t) =
  match o.status with
  | Bsolo.Outcome.Optimal | Bsolo.Outcome.Satisfiable | Bsolo.Outcome.Unsatisfiable -> true
  | Bsolo.Outcome.Unknown -> false

(* Table entries in the paper's style: CPU seconds when solved, "ub N"
   when only an upper bound was proved, "time" when nothing was found. *)
let entry (o : Bsolo.Outcome.t) =
  match o.status with
  | Bsolo.Outcome.Optimal | Bsolo.Outcome.Satisfiable -> Printf.sprintf "%.2f" o.elapsed
  | Bsolo.Outcome.Unsatisfiable -> Printf.sprintf "UNS %.2f" o.elapsed
  | Bsolo.Outcome.Unknown ->
    (match o.best with
    | Some (_, c) -> Printf.sprintf "ub %d" c
    | None -> "time")

let print_row cells widths =
  let padded = List.map2 (fun c w -> Printf.sprintf "%-*s" w c) cells widths in
  print_endline (String.concat "  " padded)
