(* Runs the whole solver portfolio of Table 1 on one instance of each
   family — a one-instance preview of the benchmark harness.

   Run with: dune exec examples/portfolio_example.exe *)

let () =
  let limit = 3.0 in
  let search (base : Bsolo.Options.t) p =
    Bsolo.Solver.solve ~options:{ base with time_limit = Some limit } p
  in
  let solvers =
    [
      "pbs", search Bsolo.Options.pbs;
      "galena", search Bsolo.Options.galena;
      ( "cplex*",
        fun p ->
          Milp.Branch_and_bound.solve
            ~options:{ Bsolo.Options.default with time_limit = Some limit }
            p );
      "bsolo-plain", search (Bsolo.Options.with_lb Bsolo.Options.Plain);
      "bsolo-LPR", search Bsolo.Options.default;
    ]
  in
  let instances =
    [
      "grout (routing)", Benchgen.Routing.generate 4;
      "synth (PTL/CMOS mapping)", Benchgen.Synthesis.generate 4;
      "mcnc (two-level cover)", Benchgen.Two_level.generate 4;
      "acc-tight (PB satisfaction)", Benchgen.Acc.generate 4;
    ]
  in
  List.iter
    (fun (name, problem) ->
      Format.printf "%s: %d vars, %d constraints@." name (Pbo.Problem.nvars problem)
        (Array.length (Pbo.Problem.constraints problem));
      List.iter
        (fun (sname, solve) ->
          let o = solve problem in
          Format.printf "  %-12s %a@." sname Bsolo.Outcome.pp o)
        solvers;
      Format.printf "@.")
    instances
