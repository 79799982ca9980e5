(* Random small instances for cross-checking solvers against the
   brute-force reference. *)
open Pbo

type config = {
  nvars : int;
  nconstrs : int;
  max_arity : int;
  max_coeff : int;
  max_cost : int;
  with_objective : bool;
}

let default = { nvars = 8; nconstrs = 10; max_arity = 4; max_coeff = 4; max_cost = 6; with_objective = true }

let lit_of rng nvars =
  let v = Random.State.int rng nvars in
  Lit.make v (Random.State.bool rng)

let problem ?(config = default) seed =
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  let b = Problem.Builder.create ~nvars:config.nvars () in
  for _ = 1 to config.nconstrs do
    let arity = 1 + Random.State.int rng config.max_arity in
    let terms =
      List.init arity (fun _ ->
          1 + Random.State.int rng config.max_coeff, lit_of rng config.nvars)
    in
    let total = List.fold_left (fun acc (c, _) -> acc + c) 0 terms in
    let rhs = 1 + Random.State.int rng (max total 1) in
    Problem.Builder.add_ge b terms rhs
  done;
  if config.with_objective then begin
    let costs =
      List.init config.nvars (fun v -> Random.State.int rng (config.max_cost + 1), Lit.pos v)
      |> List.filter (fun (c, _) -> c > 0)
    in
    Problem.Builder.set_objective b costs
  end;
  Problem.Builder.build b

(* A generator biased toward satisfiable optimization instances: clauses
   plus cardinality constraints, unit costs. *)
let covering ?(nvars = 10) ?(nclauses = 14) seed =
  let rng = Random.State.make [| seed; 0x51ed2701 |] in
  let b = Problem.Builder.create ~nvars () in
  for _ = 1 to nclauses do
    let arity = 2 + Random.State.int rng 3 in
    let lits = List.init arity (fun _ -> Lit.pos (Random.State.int rng nvars)) in
    Problem.Builder.add_clause b lits
  done;
  let costs = List.init nvars (fun v -> 1 + Random.State.int rng 4, Lit.pos v) in
  Problem.Builder.set_objective b costs;
  Problem.Builder.build b

(* Satisfiable by construction: every constraint is drawn over random
   literals with general coefficients, and its degree is at most the
   weight a hidden random model gives it.  Rich in implications, failed
   literals and ties in cost/weight ratios. *)
let planted ?(nvars = 16) ?(nconstrs = 30) ?(max_arity = 5) ?(max_coeff = 5)
    ?(cost = fun rng -> 1 + Random.State.int rng 5) seed =
  let rng = Random.State.make [| seed; 0x57e9 |] in
  let model = Array.init nvars (fun _ -> Random.State.bool rng) in
  let b = Problem.Builder.create ~nvars () in
  for _ = 1 to nconstrs do
    let arity = 2 + Random.State.int rng (max_arity - 1) in
    let terms =
      List.init arity (fun _ -> 1 + Random.State.int rng max_coeff, lit_of rng nvars)
    in
    let weight =
      List.fold_left
        (fun acc (a, l) -> if model.(Lit.var l) = Lit.is_pos l then acc + a else acc)
        0 terms
    in
    if weight > 0 then Problem.Builder.add_ge b terms (1 + Random.State.int rng weight)
  done;
  Problem.Builder.set_objective b
    (List.init nvars (fun v -> cost rng, Lit.pos v));
  Problem.Builder.build b

(* --- portfolio members for the import tests --------------------------------- *)

(* [publisher name model cost] publishes [model] at [cost] through the
   portfolio's shared cell and ends Unknown, not Satisfiable: a proved
   status would raise the stop flag and cancel the member under test. *)
let publisher name model cost =
  {
    Portfolio.pname = name;
    psolve =
      (fun ~options _ ->
        (match options.Bsolo.Options.on_incumbent with
        | Some publish -> publish model cost
        | None -> failwith "the portfolio installs no on_incumbent");
        {
          Bsolo.Outcome.status = Bsolo.Outcome.Unknown;
          best = None;
          counters = [];
          elapsed = 0.;
        });
  }

(* A bsolo member named "bsolo" that waits (up to 5 s) for the first
   broadcast before searching, otherwise it can race to the optimum on
   its own and import nothing — the very thing the import tests
   measure. *)
let importer =
  {
    Portfolio.pname = "bsolo";
    psolve =
      (fun ~options problem ->
        (match options.Bsolo.Options.external_incumbent with
        | Some hook ->
          let deadline = Unix.gettimeofday () +. 5.0 in
          while hook () = None && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done
        | None -> failwith "the portfolio installs no external_incumbent");
        Bsolo.Solver.solve ~options problem);
  }

(* The [counters] object of a parsed run report, as name/value pairs in
   report order (the registry's: sorted by name). *)
let report_counters json =
  match Telemetry.Json.member "counters" json with
  | Some (Telemetry.Json.Obj fields) ->
    Some
      (List.filter_map
         (fun (k, v) -> Option.map (fun i -> k, i) (Telemetry.Json.to_int v))
         fields)
  | Some _ | None -> None
