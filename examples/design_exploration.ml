(* Design-space exploration on top of the solver API: enumerate all
   optimal configurations and re-optimize under assumptions (what-if
   queries).

   The scenario: mapping four accelerator kernels onto two compute tiles
   with a shared-memory conflict and per-tile energy costs.

   Run with: dune exec examples/design_exploration.exe *)

open Pbo

let () =
  let b = Problem.Builder.create () in
  (* variable k<i> = kernel i placed on the fast tile (else slow tile) *)
  let k = Array.init 4 (fun _ -> Problem.Builder.fresh_var b) in
  (* the fast tile fits at most two kernels *)
  Problem.Builder.add_le b (Array.to_list (Array.map (fun v -> 1, Lit.pos v) k)) 2;
  (* kernels 0 and 1 share a scratchpad bank: not both on the fast tile *)
  Problem.Builder.add_clause b [ Lit.neg k.(0); Lit.neg k.(1) ];
  (* placing a kernel on the slow tile costs its slowdown penalty *)
  let penalty = [| 4; 3; 2; 2 |] in
  Problem.Builder.set_objective b
    (List.init 4 (fun i -> penalty.(i), Lit.neg k.(i)));
  let problem = Problem.Builder.build b in

  (* 1. all optimal placements *)
  let models, cost = Bsolo.Enumerate.optimal_models problem in
  (match cost with
  | Some c -> Format.printf "minimum total slowdown: %d (%d optimal placements)@." c (List.length models)
  | None -> Format.printf "infeasible@.");
  List.iteri
    (fun i m ->
      Format.printf "  placement %d: fast tile runs" (i + 1);
      Array.iteri (fun j v -> if Model.value m v then Format.printf " k%d" j) k;
      Format.printf "@.")
    models;

  (* 2. what-if: force kernel 0 onto the fast tile *)
  let assumed =
    Bsolo.Solver.solve_under_assumptions ~assumptions:[ Lit.pos k.(0) ] problem
  in
  match Bsolo.Outcome.best_cost assumed with
  | Some c -> Format.printf "@.with k0 pinned to the fast tile: slowdown %d@." c
  | None -> Format.printf "@.k0 cannot run on the fast tile@."
