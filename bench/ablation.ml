(* Ablations of the techniques the paper introduces beyond the raw lower
   bounds (DESIGN.md experiments A, B, C).  Each ablation runs bsolo-LPR
   with one technique disabled over the optimization families and reports
   solved counts and total time. *)

type variant = {
  vname : string;
  voptions : Bsolo.Options.t;
}

let base = Bsolo.Options.default

let variants_for = function
  | `Bound_conflicts ->
    [
      { vname = "non-chronological omega_bc (paper)"; voptions = base };
      {
        vname = "chronological bound conflicts";
        voptions = { base with bound_conflict_learning = false };
      };
    ]
  | `Branching ->
    [
      { vname = "LP-guided branching (paper)"; voptions = base };
      { vname = "VSIDS-only branching"; voptions = { base with lp_guided_branching = false } };
    ]
  | `Knapsack ->
    [
      { vname = "knapsack + cardinality cuts (paper)"; voptions = base };
      {
        vname = "no incumbent cuts";
        voptions = { base with knapsack_cuts = false; cardinality_inference = false };
      };
    ]
  | `Strengthen ->
    [
      { vname = "constraint strengthening (paper)"; voptions = base };
      {
        vname = "no strengthening";
        voptions = { base with constraint_strengthening = false };
      };
    ]
  | `Cut_pool ->
    [
      { vname = "cut pool + presolve (tree)"; voptions = base };
      {
        vname = "no cuts, no presolve";
        voptions = { base with cuts = Bsolo.Options.Cuts_off; presolve = false };
      };
    ]
  | `Lgr_iters ->
    [
      { vname = "LGR 50 subgradient iters"; voptions = { base with lb_method = Bsolo.Options.Lgr } };
      {
        vname = "LGR 10 subgradient iters";
        voptions = { base with lb_method = Bsolo.Options.Lgr; lgr_iters = 10 };
      };
    ]

let run ~limit ~scale ~per_family which () =
  let instances =
    Benchgen.Suite.instances ~scale ~per_family ()
    |> List.filter (fun (i : Benchgen.Suite.instance) ->
           not (Pbo.Problem.is_satisfaction i.problem))
  in
  let variants = variants_for which in
  Printf.printf "Ablation over %d optimization instances, %.1fs limit each:\n\n%!"
    (List.length instances) limit;
  List.iter
    (fun v ->
      let options = { v.voptions with time_limit = Some limit } in
      let solved = ref 0 in
      let total_time = ref 0. in
      let total_nodes = ref 0 in
      List.iter
        (fun (i : Benchgen.Suite.instance) ->
          let o = Bsolo.Solver.solve ~options i.problem in
          if Run.solved o then begin
            incr solved;
            total_time := !total_time +. o.elapsed
          end
          else total_time := !total_time +. limit;
          total_nodes := !total_nodes + Bsolo.Outcome.counter o "search.nodes")
        instances;
      Printf.printf "  %-40s solved %2d/%d, total %.1fs, %d nodes\n%!" v.vname !solved
        (List.length instances) !total_time !total_nodes)
    variants
