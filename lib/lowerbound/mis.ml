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

(* A row's cover reads only the values of its own literals, so its
   [score], [mu] and membership of [order] stay valid until one of them
   changes.  [compute] re-covers exactly the rows of the variables whose
   value differs from [mirror]. *)
type t = {
  engine : Core.t;
  rows : row array;  (* ascending cid *)
  occ_start : int array;  (* CSR index: the rows of variable v are in [occ] *)
  occ : int array;  (* from occ_start.(v) to occ_start.(v + 1) - 1 *)
  mirror : Value.t array;  (* per variable: its value at the last drain *)
  dirty : bool array;  (* per row: queued for a re-cover *)
  queue : int array;  (* dirty rows, first [nqueue] *)
  mutable nqueue : int;
  score : float array;  (* per row: cover bound at the last re-cover *)
  mu : float array;  (* per row: critical cost/weight ratio *)
  order : int array;  (* unsatisfied rows scoring > 1e-9, in [before] order; first [npos] *)
  mutable npos : int;
  stamp : int array;  (* per variable: [gen] when used by a selected row *)
  mutable gen : int;
  rescored : Instr.counter;
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
  let m = Array.length rows and nvars = Core.nvars engine in
  let occ_start = Array.make (nvars + 1) 0 in
  Array.iter
    (fun row ->
      Array.iter
        (fun l ->
          let v = Lit.var l in
          occ_start.(v + 1) <- occ_start.(v + 1) + 1)
        row.lits)
    rows;
  for v = 1 to nvars do
    occ_start.(v) <- occ_start.(v) + occ_start.(v - 1)
  done;
  let occ = Array.make occ_start.(nvars) 0 and fill = Array.sub occ_start 0 nvars in
  Array.iteri
    (fun r row ->
      Array.iter
        (fun l ->
          let v = Lit.var l in
          occ.(fill.(v)) <- r;
          fill.(v) <- fill.(v) + 1)
        row.lits)
    rows;
  (* The mirror starts from the current values (a search creates [t] at
     its first bound call, possibly deep in the tree), every row starts
     dirty, and the change set so far is absorbed. *)
  let mirror = Array.init nvars (Core.value_var engine) in
  Core.drain_changed_vars engine (fun _ -> ());
  let reg = (Core.telemetry engine).Telemetry.Ctx.registry in
  {
    engine;
    rows;
    occ_start;
    occ;
    mirror;
    dirty = Array.make m true;
    queue = Array.init m Fun.id;
    nqueue = m;
    score = Array.make m 0.;
    mu = Array.make m 0.;
    order = Array.make m 0;
    npos = 0;
    stamp = Array.make nvars 0;
    gen = 0;
    rescored = Instr.counter reg "mis.rows_rescored";
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

(* Queue the rows of [v] for a re-cover if its value moved since the
   last drain; churn that cancelled out (a backjump and the same
   redecision) leaves them alone. *)
let touch t v =
  let cur = Core.value_var t.engine v in
  if not (Value.equal cur t.mirror.(v)) then begin
    t.mirror.(v) <- cur;
    for k = t.occ_start.(v) to t.occ_start.(v + 1) - 1 do
      let r = t.occ.(k) in
      if not t.dirty.(r) then begin
        t.dirty.(r) <- true;
        t.queue.(t.nqueue) <- r;
        t.nqueue <- t.nqueue + 1
      end
    done
  end

(* The greedy order: score descending, then row ascending.  It is total,
   so any correct sort gives the order a stable sort by score of the
   rows in ascending order gives. *)
let before t r1 r2 =
  let s1 = t.score.(r1) and s2 = t.score.(r2) in
  s1 > s2 || (s1 = s2 && r1 < r2)

let rec sift t a n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && before t a.(l) a.(l + 1) then l + 1 else l in
    if before t a.(i) a.(c) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift t a n c
    end
  end

(* In-place heap sort of [a.(0 .. n-1)] into [before] order. *)
let sort_prefix t a n =
  for i = (n / 2) - 1 downto 0 do
    sift t a n i
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift t a last 0
  done

(* Re-cover the queued rows and bring [order] up to date: the rows that
   stayed clean keep their relative order, the re-covered positive rows
   are sorted among themselves, and the two runs are merged from the
   back. *)
let refresh t =
  Core.drain_changed_vars t.engine (touch t);
  let k = ref 0 in
  for i = 0 to t.npos - 1 do
    let r = t.order.(i) in
    if not t.dirty.(r) then begin
      t.order.(!k) <- r;
      incr k
    end
  done;
  let d = ref 0 in
  for i = 0 to t.nqueue - 1 do
    let r = t.queue.(i) in
    t.dirty.(r) <- false;
    if cover t r && t.score.(r) > 1e-9 then begin
      t.queue.(!d) <- r;
      incr d
    end
  done;
  Instr.add t.rescored t.nqueue;
  let d = !d in
  sort_prefix t t.queue d;
  let i = ref (!k - 1) and j = ref (d - 1) in
  while !j >= 0 do
    let w = !i + !j + 1 in
    if !i >= 0 && before t t.queue.(!j) t.order.(!i) then begin
      t.order.(w) <- t.order.(!i);
      decr i
    end
    else begin
      t.order.(w) <- t.queue.(!j);
      decr j
    end
  done;
  t.npos <- !k + d;
  t.nqueue <- 0

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
  for i = 0 to Array.length row.lits - 1 do
    let l = row.lits.(i) in
    if unassigned t.engine l then t.stamp.(Lit.var l) <- t.gen
  done

let compute t =
  refresh t;
  t.gen <- t.gen + 1;
  let total = ref 0. and chosen = ref [] in
  for i = 0 to t.npos - 1 do
    let r = t.order.(i) in
    let row = t.rows.(r) in
    if independent t row then begin
      mark t row;
      total := !total +. t.score.(r);
      chosen := (row.cid, t.mu.(r)) :: !chosen
    end
  done;
  let chosen = !chosen in
  {
    Bound.value = Bound.trusted_value !total;
    omega_rows = lazy { Bound.cids = List.map fst chosen; cuts = []; keep = None };
    branch_hint = None;
    cert = lazy (Proof.Cert_bound chosen);
  }
