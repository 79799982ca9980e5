(* Binate covering as pseudo-Boolean optimization — the classic EDA
   problem the paper's lower-bounding work grew out of (Coudert; Villa
   et al.), solved as PBO with no matrix reductions (paper section 2).

   We minimize the implementation cost of a small technology-mapping
   problem: columns are candidate gates, rows are requirements.  Binate
   rows encode "selecting gate g requires buffer b" style implications,
   so a row is a clause that may mention a column negatively.

   Run with: dune exec examples/logic_minimization.exe *)

open Pbo

let () =
  let gate_names = [| "nand2"; "nand3"; "aoi21"; "inv_a"; "inv_b"; "buf"; "xor2" |] in
  let cost = [| 3; 4; 5; 1; 1; 2; 6 |] in
  let b = Problem.Builder.create ~nvars:(Array.length cost) () in
  let rows =
    [
      (* each output function must be implemented by some gate *)
      [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ];  (* f1: nand2 | nand3 | aoi21 *)
      [ Lit.pos 2; Lit.pos 6 ];  (* f2: aoi21 | xor2 *)
      [ Lit.pos 1; Lit.pos 6 ];  (* f3: nand3 | xor2 *)
      (* structural requirements *)
      [ Lit.neg 0; Lit.pos 3 ];  (* nand2 needs inv_a *)
      [ Lit.neg 2; Lit.pos 5 ];  (* aoi21 needs buf *)
      [ Lit.neg 6; Lit.pos 4 ];  (* xor2 needs inv_b *)
      (* only one inverter flavour may drive the shared net *)
      [ Lit.neg 3; Lit.neg 4 ];
      (* the output stage always needs the buffer *)
      [ Lit.pos 5 ];
      (* a weaker variant of the f1 requirement *)
      [ Lit.pos 0; Lit.pos 1; Lit.pos 2; Lit.pos 6 ];
    ]
  in
  List.iter (Problem.Builder.add_clause b) rows;
  Problem.Builder.set_objective b (List.mapi (fun c w -> w, Lit.pos c) (Array.to_list cost));
  let problem = Problem.Builder.build b in
  Format.printf "covering matrix: %d rows x %d columns, binate@." (List.length rows)
    (Problem.nvars problem);
  let outcome = Bsolo.Solver.solve problem in
  match outcome.status, outcome.best with
  | Bsolo.Outcome.Optimal, Some (m, cost) ->
    Format.printf "minimum cost %d using:" cost;
    Array.iteri (fun c name -> if Model.value m c then Format.printf " %s" name) gate_names;
    Format.printf "@.";
    (* cross-check against brute-force enumeration of all 2^7 selections *)
    (match Bsolo.Exhaustive.optimum problem with
    | Some (_, best) -> assert (best = cost)
    | None -> assert false);
    Format.printf "(agrees with exhaustive enumeration)@."
  | status, _ -> failwith ("unexpected status: " ^ Bsolo.Outcome.status_name status)
