open Pbo
module Core = Engine.Solver_core

(* One lower-bound-eligible constraint, prepared once.  Its terms are in
   the order [Core.active_constraints] lists them (the reversed term
   array), stable-sorted by cost/weight ratio.  A stable sort of a
   subsequence is the subsequence of the stable sort, so skipping the
   assigned terms at a node walks exactly the order the per-node sort of
   the unassigned terms would give. *)
type row = {
  cid : Core.cid;
  degree : int;
  lits : Lit.t array;
  coeffs : int array;
  costs : float array;
  weights : float array;
}

type t = {
  engine : Core.t;
  rows : row array;  (* ascending cid *)
  score : float array;  (* per row: cover bound at the current node *)
  mu : float array;  (* per row: critical cost/weight ratio *)
  order : int array;  (* positive rows of the current call, first [npos] *)
  stamp : int array;  (* per variable: [gen] when used by a selected row *)
  mutable gen : int;
  calls : Instr.counter;
}

let by_ratio (c1, w1, _, _) (c2, w2, _, _) = compare (c1 *. w2) (c2 *. w1)

let prepare engine (cid, c) =
  let terms =
    Array.fold_left
      (fun acc { Constr.coeff; lit } ->
        (float_of_int (Core.cost_of_lit engine lit), float_of_int coeff, coeff, lit) :: acc)
      [] (Constr.terms c)
  in
  let sorted = Array.of_list (List.stable_sort by_ratio terms) in
  {
    cid;
    degree = Constr.degree c;
    lits = Array.map (fun (_, _, _, l) -> l) sorted;
    coeffs = Array.map (fun (_, _, a, _) -> a) sorted;
    costs = Array.map (fun (c, _, _, _) -> c) sorted;
    weights = Array.map (fun (_, w, _, _) -> w) sorted;
  }

let create engine =
  let rows = Array.of_list (List.map (prepare engine) (Core.lb_constraints engine)) in
  let m = Array.length rows in
  {
    engine;
    rows;
    score = Array.make m 0.;
    mu = Array.make m 0.;
    order = Array.make m 0;
    stamp = Array.make (Core.nvars engine) 0;
    gen = 0;
    calls = Instr.counter (Core.telemetry engine).Telemetry.Ctx.registry "mis.calls";
  }

let unassigned engine l = Value.equal (Core.value_lit engine l) Value.Unknown

(* Fractional knapsack-cover bound for one residual constraint: the LP
   optimum of [min sum cost_l y_l  s.t.  sum a_l y_l >= residual,
   0 <= y <= 1], taking unassigned literals by increasing cost/weight
   ratio, the last one fractionally.  Also records the LP dual of the
   cover row — the cost/weight ratio of the critical (partially taken)
   item — which is the Lagrangian multiplier certifying the bound in
   proof logs.  Coefficients are strictly positive, so the ratio is well
   defined.  Returns [false] for a satisfied row. *)
let cover t r =
  let engine = t.engine in
  let row = t.rows.(r) in
  let n = Array.length row.lits in
  let true_weight = ref 0 in
  for i = 0 to n - 1 do
    if Value.equal (Core.value_lit engine row.lits.(i)) Value.True then
      true_weight := !true_weight + row.coeffs.(i)
  done;
  let residual = row.degree - !true_weight in
  if residual <= 0 then false
  else begin
    let need = ref (float_of_int residual) and acc = ref 0. and last_mu = ref 0. in
    let i = ref 0 in
    while !i < n do
      if unassigned engine row.lits.(!i) then begin
        let c = row.costs.(!i) and w = row.weights.(!i) in
        if !need <= 0. then i := n
        else if w >= !need then begin
          acc := !acc +. (c *. !need /. w);
          last_mu := c /. w;
          i := n
        end
        else begin
          need := !need -. w;
          acc := !acc +. c;
          last_mu := c /. w
        end
      end;
      incr i
    done;
    t.score.(r) <- !acc;
    t.mu.(r) <- !last_mu;
    true
  end

(* Only unassigned variables are ever stamped, so the assigned terms of
   [row] need no test of their own. *)
let independent t row =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length row.lits do
    if t.stamp.(Lit.var row.lits.(!i)) = t.gen then ok := false;
    incr i
  done;
  !ok

let mark t row =
  Array.iter
    (fun l -> if unassigned t.engine l then t.stamp.(Lit.var l) <- t.gen)
    row.lits

let compute t =
  Instr.add t.calls 1;
  let npos = ref 0 in
  for r = 0 to Array.length t.rows - 1 do
    if cover t r && t.score.(r) > 1e-9 then begin
      t.order.(!npos) <- r;
      incr npos
    end
  done;
  let ordered = Array.sub t.order 0 !npos in
  Array.stable_sort (fun r1 r2 -> compare t.score.(r2) t.score.(r1)) ordered;
  t.gen <- t.gen + 1;
  let total = ref 0. and chosen = ref [] in
  Array.iter
    (fun r ->
      let row = t.rows.(r) in
      if independent t row then begin
        mark t row;
        total := !total +. t.score.(r);
        chosen := (row.cid, t.mu.(r)) :: !chosen
      end)
    ordered;
  let chosen = !chosen and engine = t.engine in
  let cids = List.map fst chosen in
  let omega_pl =
    lazy (List.sort_uniq Lit.compare (List.concat_map (Core.false_lits_of engine) cids))
  in
  {
    Bound.value = Bound.trusted_value !total;
    omega_pl;
    branch_hint = None;
    cert = lazy (Proof.Cert_bound chosen);
  }
