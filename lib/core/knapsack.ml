open Pbo

type row = {
  cid : int option;
  mandatory : int;
  family : Constr.family;
}

let cost_terms p =
  match Problem.objective p with
  | None -> [||]
  | Some o -> o.cost_terms

let raw_of terms = List.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) terms
let objective_family p = Constr.family (raw_of (Array.to_list (cost_terms p)))
let knapsack_row p = { cid = None; mandatory = 0; family = objective_family p }

let cardinality_rows p =
  let nvars = Problem.nvars p in
  let terms = cost_terms p in
  let lit_cost = Array.make (2 * max nvars 1) 0 in
  Array.iter (fun (ct : Problem.cost_term) -> lit_cost.(Lit.to_index ct.lit) <- ct.cost) terms;
  let in_k = Array.make (max nvars 1) false in
  let objective = lazy (objective_family p) in
  let row cid c =
    if not (Constr.is_cardinality c) then None
    else begin
      (* V of eq. (12): the U smallest costs of making literals of K true *)
      let costs = Constr.fold_lits (fun l acc -> lit_cost.(Lit.to_index l) :: acc) c [] in
      let rec take k acc = function
        | [] -> acc
        | x :: rest -> if k = 0 then acc else take (k - 1) (acc + x) rest
      in
      let v = take (Constr.degree c) 0 (List.sort compare costs) in
      if v <= 0 then None
      else begin
        let mark b = Constr.fold_lits (fun l () -> in_k.(Lit.var l) <- b) c () in
        mark true;
        let family = Constr.family_without (Lazy.force objective) (fun v -> in_k.(v)) in
        mark false;
        Some { cid = Some cid; mandatory = v; family }
      end
    end
  in
  Array.to_list (Problem.constraints p) |> List.mapi row |> List.filter_map Fun.id

let cut row ~upper = Constr.family_at row.family (upper - 1 - row.mandatory)
