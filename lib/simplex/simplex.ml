module Lu = Lu

type rel =
  | Ge
  | Le
  | Eq

type row = {
  coeffs : (int * float) array;
  rel : rel;
  rhs : float;
}

type problem = {
  ncols : int;
  lower : float array;
  upper : float array;
  objective : float array;
  rows : row array;
}

type solution = {
  value : float;
  x : float array;
  row_activity : float array;
  duals : float array;
}

type outcome =
  | Optimal of solution
  | Infeasible of (int * float) list
  | Unbounded
  | Iteration_limit of float option

type stats = {
  mutable calls : int;
  mutable iterations : int;
  mutable phase1_iters : int;
  mutable phase2_iters : int;
  mutable pivots : int;
  mutable refreshes : int;
  mutable refactors : int;
}

let stats () =
  {
    calls = 0;
    iterations = 0;
    phase1_iters = 0;
    phase2_iters = 0;
    pivots = 0;
    refreshes = 0;
    refactors = 0;
  }

(* Updates the LU of the basis takes before it is rebuilt from A. *)
let refactor_period = 32

(* Work done on a state, carried across the states an [Incremental.t]
   builds, so that each [reoptimize] can flush what it added. *)
type work = {
  mutable npivots : int;
  mutable nrefresh : int;
  mutable nrefactor : int;
}

(* Internal state: every row is an equality over [ntotal] columns
   (structural, then one slack per row, then one artificial per row).
   The structural part of the matrix is held by rows ([rstart]/[rcol]/
   [rval]) and by columns ([cstart]/[crow]/[cval]); slack i's column is
   [slk.(i)] e_i and artificial i's is [sigma.(i)] e_i.  [basis] is the
   column at each basis position and [pos] the position of each basic
   column (-1 when nonbasic).  [lu] factors the basis matrix, whose
   column k is column [basis.(k)]; [lu_stale] says an edit changed the
   basis outside a pivot, so the next solve refactors first.  [rc],
   [lb], [ub] and [xval] cover all [ntotal] columns; nonbasic columns
   rest at a bound.  [vrow], [vpos], [rho], [alpha] and [arow] are
   scratch: an FTRAN input by row, a BTRAN input by position, the last
   BTRAN result by row, the last FTRAN result by position, and the
   pivot row over all columns.  [pcols] lists, ascending, the [width]
   columns where that row is nonzero, artificial ones only when it was
   priced with them; [arow] is zero (of either sign) elsewhere.  [nzrow]
   is scratch: the rows where [rho] is nonzero.  Row edits splice the
   arrays in place, so an array may be longer than the rows or columns
   it holds. *)
type state = {
  mutable m : int;
  n : int;
  mutable ntotal : int;
  mutable rstart : int array;
  mutable rcol : int array;
  mutable rval : float array;
  cstart : int array;
  mutable crow : int array;
  mutable cval : float array;
  mutable slk : float array;
  mutable sigma : float array;
  mutable rhs : float array;
  mutable lb : float array;
  mutable ub : float array;
  mutable xval : float array;
  mutable rc : float array;
  mutable basis : int array;
  mutable pos : int array;
  lu : Lu.t;
  mutable lu_stale : bool;
  mutable vrow : float array;
  mutable vpos : float array;
  mutable rho : float array;
  mutable alpha : float array;
  mutable arow : float array;
  mutable nzrow : int array;
  mutable pcols : int array;
  mutable width : int;
  mutable pivots_since_refresh : int;
  work : work;
  eps : float;
}

type step =
  | Moved  (* a pivot or bound flip happened *)
  | Opt
  | Unbd

let art_col st i = st.n + st.m + i

(* Row [r]'s structural entries by ascending column: repeated columns
   summed in order, exact zeros left out. *)
let row_entries (r : row) =
  let k = Array.length r.coeffs in
  let order = Array.init k Fun.id in
  Array.stable_sort (fun a b -> compare (fst r.coeffs.(a)) (fst r.coeffs.(b))) order;
  let cols = Array.make k 0 and vals = Array.make k 0. in
  let len = ref 0 and q = ref 0 in
  while !q < k do
    let j = fst r.coeffs.(order.(!q)) in
    let sum = ref 0. in
    while !q < k && fst r.coeffs.(order.(!q)) = j do
      sum := !sum +. snd r.coeffs.(order.(!q));
      incr q
    done;
    if !sum <> 0. then begin
      cols.(!len) <- j;
      vals.(!len) <- !sum;
      incr len
    end
  done;
  (Array.sub cols 0 !len, Array.sub vals 0 !len)

(* The structural part of [rows] by rows and by columns, each column's
   entries in ascending row order. *)
let build_matrix n (rows : row array) =
  let m = Array.length rows in
  let entries = Array.map row_entries rows in
  let rstart = Array.make (m + 1) 0 in
  Array.iteri (fun i (cols, _) -> rstart.(i + 1) <- rstart.(i) + Array.length cols) entries;
  let rcol = Array.concat (Array.to_list (Array.map fst entries)) in
  let rval = Array.concat (Array.to_list (Array.map snd entries)) in
  let nnz = rstart.(m) in
  let cstart = Array.make (n + 1) 0 in
  Array.iter (fun j -> cstart.(j + 1) <- cstart.(j + 1) + 1) rcol;
  for j = 0 to n - 1 do
    cstart.(j + 1) <- cstart.(j + 1) + cstart.(j)
  done;
  let fill = Array.sub cstart 0 n in
  let crow = Array.make nnz 0 and cval = Array.make nnz 0. in
  for i = 0 to m - 1 do
    for q = rstart.(i) to rstart.(i + 1) - 1 do
      let j = rcol.(q) in
      crow.(fill.(j)) <- i;
      cval.(fill.(j)) <- rval.(q);
      fill.(j) <- fill.(j) + 1
    done
  done;
  (rstart, rcol, rval, cstart, crow, cval)

let make_state ~eps ~n (rows : row array) ~slk ~sigma ~lb ~ub ~xval ~rc ~basis ~lu ~lu_stale ~work
    =
  let m = Array.length rows in
  let ntotal = n + (2 * m) in
  let rstart, rcol, rval, cstart, crow, cval = build_matrix n rows in
  let pos = Array.make ntotal (-1) in
  Array.iteri (fun k j -> pos.(j) <- k) basis;
  {
    m;
    n;
    ntotal;
    rstart;
    rcol;
    rval;
    cstart;
    crow;
    cval;
    slk;
    sigma;
    rhs = Array.map (fun (r : row) -> r.rhs) rows;
    lb;
    ub;
    xval;
    rc;
    basis;
    pos;
    lu;
    lu_stale;
    vrow = Array.make m 0.;
    vpos = Array.make m 0.;
    rho = Array.make m 0.;
    alpha = Array.make m 0.;
    arow = Array.make ntotal 0.;
    nzrow = Array.make m 0;
    pcols = Array.make ntotal 0;
    width = 0;
    pivots_since_refresh = 0;
    work;
    eps;
  }

let refactor st =
  Lu.factor st.lu st.m (fun k emit ->
      let j = st.basis.(k) in
      if j < st.n then
        for q = st.cstart.(j) to st.cstart.(j + 1) - 1 do
          emit st.crow.(q) st.cval.(q)
        done
      else if j < st.n + st.m then emit (j - st.n) st.slk.(j - st.n)
      else emit (j - st.n - st.m) st.sigma.(j - st.n - st.m));
  st.lu_stale <- false;
  st.work.nrefactor <- st.work.nrefactor + 1

(* alpha = B^-1 a_j, by basis position. *)
let ftran_col st j =
  let v = st.vrow in
  Array.fill v 0 st.m 0.;
  if j < st.n then
    for q = st.cstart.(j) to st.cstart.(j + 1) - 1 do
      v.(st.crow.(q)) <- st.cval.(q)
    done
  else if j < st.n + st.m then v.(j - st.n) <- st.slk.(j - st.n)
  else v.(j - st.n - st.m) <- st.sigma.(j - st.n - st.m);
  Lu.ftran st.lu v st.alpha

(* rho = c_B B^-1 for the given cost vector: the simplex multipliers. *)
let btran_cost st cost =
  for k = 0 to st.m - 1 do
    st.vpos.(k) <- cost.(st.basis.(k))
  done;
  Lu.btran st.lu st.vpos st.rho

(* The pivot row of position [r]: rho = e_r B^-1, then arow = rho A,
   summed only over the rows where rho is nonzero.  [pcols] records the
   columns where the row is nonzero, read off [arow] after the sums.
   Without [arts] the artificial columns are left out: the dual simplex
   runs with every artificial fixed at 0, where none can enter and their
   reduced costs are not read before the next refresh recomputes
   them. *)
let price_row st r ~arts =
  let m = st.m and n = st.n in
  Array.fill st.vpos 0 m 0.;
  st.vpos.(r) <- 1.;
  Lu.btran st.lu st.vpos st.rho;
  let arow = st.arow and pcols = st.pcols and nzrow = st.nzrow in
  let rho = st.rho and rstart = st.rstart and rcol = st.rcol and rval = st.rval in
  for k = 0 to st.width - 1 do
    Array.unsafe_set arow (Array.unsafe_get pcols k) 0.
  done;
  let nnz = ref 0 in
  for i = 0 to m - 1 do
    let p = Array.unsafe_get rho i in
    if p <> 0. then begin
      for q = rstart.(i) to rstart.(i + 1) - 1 do
        let j = Array.unsafe_get rcol q in
        Array.unsafe_set arow j (Array.unsafe_get arow j +. (p *. Array.unsafe_get rval q))
      done;
      arow.(n + i) <- p *. st.slk.(i);
      if arts then arow.(n + m + i) <- p *. st.sigma.(i);
      Array.unsafe_set nzrow !nnz i;
      incr nnz
    end
  done;
  let w = ref 0 in
  for j = 0 to n - 1 do
    if Array.unsafe_get arow j <> 0. then begin
      Array.unsafe_set pcols !w j;
      incr w
    end
  done;
  (* a slack or artificial entry is rho_i times +-1, so nonzero *)
  let w = !w and nnz = !nnz in
  for k = 0 to nnz - 1 do
    Array.unsafe_set pcols (w + k) (n + Array.unsafe_get nzrow k)
  done;
  if arts then
    for k = 0 to nnz - 1 do
      Array.unsafe_set pcols (w + nnz + k) (n + m + Array.unsafe_get nzrow k)
    done;
  st.width <- w + if arts then 2 * nnz else nnz

(* Recompute the reduced costs rc_j = c_j - y A_j with y = c_B B^-1 (one
   BTRAN, one pass over A); basic columns get exactly 0.  Leaves y in
   [rho].  Done once per phase, at every warm start and every 100 pivots
   to flush drift; pivots keep [rc] in sync in between. *)
let refresh_reduced_costs st cost =
  btran_cost st cost;
  let y = st.rho and n = st.n and m = st.m in
  let pos = st.pos and rc = st.rc and cstart = st.cstart and crow = st.crow and cval = st.cval in
  for j = 0 to n - 1 do
    if pos.(j) >= 0 then rc.(j) <- 0.
    else begin
      let s = ref cost.(j) in
      for q = cstart.(j) to cstart.(j + 1) - 1 do
        s := !s -. (Array.unsafe_get y (Array.unsafe_get crow q) *. Array.unsafe_get cval q)
      done;
      rc.(j) <- !s
    end
  done;
  for i = 0 to m - 1 do
    let j = n + i in
    rc.(j) <- (if pos.(j) >= 0 then 0. else cost.(j) -. (y.(i) *. st.slk.(i)));
    let j = n + m + i in
    rc.(j) <- (if pos.(j) >= 0 then 0. else cost.(j) -. (y.(i) *. st.sigma.(i)))
  done;
  st.pivots_since_refresh <- 0;
  st.work.nrefresh <- st.work.nrefresh + 1

(* Basic values from scratch: x_B = B^-1 (b - N x_N), one pass over the
   nonbasic columns off zero and one FTRAN.  False when a value is not
   finite. *)
let compute_basic_values st =
  let v = st.vrow and n = st.n and m = st.m in
  let xval = st.xval and pos = st.pos and cstart = st.cstart and crow = st.crow and cval = st.cval in
  Array.blit st.rhs 0 v 0 m;
  for j = 0 to st.ntotal - 1 do
    let x = xval.(j) in
    if pos.(j) < 0 && x <> 0. then
      if j < n then
        for q = cstart.(j) to cstart.(j + 1) - 1 do
          let i = crow.(q) in
          v.(i) <- v.(i) -. (cval.(q) *. x)
        done
      else if j < n + m then v.(j - n) <- v.(j - n) -. (st.slk.(j - n) *. x)
      else
        let i = j - n - m in
        v.(i) <- v.(i) -. (st.sigma.(i) *. x)
  done;
  Lu.ftran st.lu v st.alpha;
  let ok = ref true in
  for k = 0 to m - 1 do
    let s = st.alpha.(k) in
    if not (Float.is_finite s) then ok := false;
    xval.(st.basis.(k)) <- s
  done;
  !ok

(* Entering column: nonbasic at lower bound with negative reduced cost, or
   at upper bound with positive reduced cost.  Dantzig rule by default,
   Bland's rule (first eligible index) when [bland]. *)
let choose_entering st ~bland =
  let best = ref (-1) in
  let best_score = ref st.eps in
  let consider j =
    if st.pos.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
      let r = st.rc.(j) in
      let at_lower = st.xval.(j) <= st.lb.(j) +. st.eps in
      let score =
        if at_lower && r < -.st.eps then -.r
        else if (not at_lower) && r > st.eps then r
        else 0.
      in
      if score > !best_score then begin
        best := j;
        best_score := score;
        if bland then raise Exit
      end
    end
  in
  (try
     for j = 0 to st.ntotal - 1 do
       consider j
     done
   with Exit -> ());
  !best

(* Column [j] replaces the basic column at position [r], with [alpha]
   holding B^-1 a_j and [arow] the pivot row of [r].  The reduced costs
   move along the pivot row; the LU takes an eta, or is rebuilt (keeping
   the vertex: the basic values are recomputed) once [refactor_period]
   etas have piled up or the two pivot values disagree.  Two far apart
   mean the factors can no longer be trusted: [Lu.Singular]. *)
let basis_change st r j =
  let arj = st.arow.(j) and acj = st.alpha.(r) in
  let gap = abs_float (acj -. arj) in
  if gap > 1e-6 *. (1. +. abs_float arj) then raise Lu.Singular;
  let rcj = st.rc.(j) in
  if rcj <> 0. then begin
    let theta = rcj /. arj in
    let arow = st.arow and pcols = st.pcols and pos = st.pos and rc = st.rc in
    for k = 0 to st.width - 1 do
      let c = Array.unsafe_get pcols k in
      let a = Array.unsafe_get arow c in
      if a <> 0. && Array.unsafe_get pos c < 0 then
        Array.unsafe_set rc c (Array.unsafe_get rc c -. (theta *. a))
    done
  end;
  let leaving = st.basis.(r) in
  st.rc.(j) <- 0.;
  st.rc.(leaving) <- (if rcj <> 0. then -.(rcj /. arj) else 0.);
  st.basis.(r) <- j;
  st.pos.(j) <- r;
  st.pos.(leaving) <- -1;
  st.pivots_since_refresh <- st.pivots_since_refresh + 1;
  st.work.npivots <- st.work.npivots + 1;
  if Lu.updates st.lu + 1 >= refactor_period || gap > 1e-9 *. (1. +. abs_float arj) then begin
    refactor st;
    if not (compute_basic_values st) then raise Lu.Singular
  end
  else Lu.update st.lu r st.alpha

(* One primal simplex step for the given cost vector. *)
let step st cost ~bland =
  if st.pivots_since_refresh > 100 then refresh_reduced_costs st cost;
  let j = choose_entering st ~bland in
  if j < 0 then Opt
  else begin
    let at_lower = st.xval.(j) <= st.lb.(j) +. st.eps in
    let dir = if at_lower then 1. else -1. in
    ftran_col st j;
    let alpha = st.alpha in
    (* entering moves by [dir * delta], basic k by [-dir * alpha_k * delta] *)
    let delta = ref (st.ub.(j) -. st.lb.(j)) in
    let blocking = ref (-1) in
    let blocking_to_upper = ref false in
    for i = 0 to st.m - 1 do
      let rate = -.dir *. alpha.(i) in
      let k = st.basis.(i) in
      (* a tie goes to a basic variable over the bound flip; under Bland's
         rule, to the smallest column index among the basic ones *)
      let wins_tie = !blocking < 0 || (bland && k < st.basis.(!blocking)) in
      if rate > st.eps && st.ub.(k) < infinity then begin
        let room = (st.ub.(k) -. st.xval.(k)) /. rate in
        if room < !delta -. st.eps || (room < !delta +. st.eps && wins_tie) then begin
          delta := max room 0.;
          blocking := i;
          blocking_to_upper := true
        end
      end
      else if rate < -.st.eps && st.lb.(k) > neg_infinity then begin
        let room = (st.xval.(k) -. st.lb.(k)) /. -.rate in
        if room < !delta -. st.eps || (room < !delta +. st.eps && wins_tie) then begin
          delta := max room 0.;
          blocking := i;
          blocking_to_upper := false
        end
      end
    done;
    if !delta = infinity then Unbd
    else begin
      let d = !delta in
      for i = 0 to st.m - 1 do
        let k = st.basis.(i) in
        st.xval.(k) <- st.xval.(k) -. (dir *. alpha.(i) *. d)
      done;
      st.xval.(j) <- st.xval.(j) +. (dir *. d);
      (match !blocking with
      | -1 ->
        (* bound flip: entering traverses to its opposite bound *)
        st.xval.(j) <- (if at_lower then st.ub.(j) else st.lb.(j))
      | r ->
        let leaving = st.basis.(r) in
        st.xval.(leaving) <- (if !blocking_to_upper then st.ub.(leaving) else st.lb.(leaving));
        price_row st r ~arts:true;
        basis_change st r j);
      Moved
    end
  end

(* Cooperative stop: [should_stop] is consulted every 64 iterations and
   exits through the [Iteration_limit] path, so callers inherit the same
   truncated-bound soundness treatment as a genuine iteration cap. *)
let stop_poll_mask = 63

let optimize st cost ~max_iters ~iters ~should_stop =
  refresh_reduced_costs st cost;
  let bland_after = max 100 (max_iters / 2) in
  let rec go () =
    if !iters >= max_iters || (!iters land stop_poll_mask = stop_poll_mask && should_stop ())
    then Iteration_limit None
    else begin
      incr iters;
      match step st cost ~bland:(!iters > bland_after) with
      | Moved -> go ()
      | Opt -> Optimal { value = 0.; x = [||]; row_activity = [||]; duals = [||] }
      | Unbd -> Unbounded
    end
  in
  go ()

let objective_value st cost =
  let z = ref 0. in
  for j = 0 to st.ntotal - 1 do
    if cost.(j) <> 0. then z := !z +. (cost.(j) *. st.xval.(j))
  done;
  !z

(* Row dual values for a cost vector: y = c_B B^-1.  Returns a fresh
   array. *)
let duals_for st cost =
  btran_cost st cost;
  Array.sub st.rho 0 st.m

(* Lagrangian bound from the current simplex multipliers.  In equality
   form, z(y) = y.b + sum_j min over [lb_j, ub_j] of rc_j x_j is a valid
   lower bound on the optimum for ANY y; with y = cB B^-1 the reduced
   costs rc = c - y A drop out of the basis (set to exactly 0. by the
   refresh).  The min term is evaluated with NO tolerance: dropping a
   wrong-sign term could only overstate the bound.  A nonzero rc against
   an infinite bound — however tiny — makes the term -infinity, so the
   bound degenerates to None; tiny rc against a finite bound contributes
   its exact (downward-safe) correction instead of being skipped. *)
let safe_dual_bound st cost =
  refresh_reduced_costs st cost;
  let y = st.rho in
  let z = ref 0. in
  for i = 0 to st.m - 1 do
    z := !z +. (y.(i) *. st.rhs.(i))
  done;
  let ok = ref true in
  (try
     for j = 0 to st.ntotal - 1 do
       let r = st.rc.(j) in
       if r > 0. then begin
         if st.lb.(j) = neg_infinity then begin
           ok := false;
           raise Exit
         end;
         z := !z +. (r *. st.lb.(j))
       end
       else if r < 0. then begin
         if st.ub.(j) = infinity then begin
           ok := false;
           raise Exit
         end;
         z := !z +. (r *. st.ub.(j))
       end
     done
   with Exit -> ());
  if !ok && Float.is_finite !z then Some !z else None

let slack_coeff (r : row) = match r.rel with Ge -> -1. | Le | Eq -> 1.

(* Build a fresh state for [p] on the artificial basis: artificial i is
   [sigma_i] e_i with sigma_i the sign of row i's residual at the
   starting point, so it starts at the residual's magnitude, and the
   basis matrix is diag(sigma), factored as it stands. *)
let init_state ~eps ~work ~lu (p : problem) =
  let m = Array.length p.rows in
  let n = p.ncols in
  let ntotal = n + (2 * m) in
  let lb = Array.make ntotal 0. in
  let ub = Array.make ntotal infinity in
  Array.blit p.lower 0 lb 0 n;
  Array.blit p.upper 0 ub 0 n;
  for j = 0 to n - 1 do
    if lb.(j) = neg_infinity && ub.(j) = infinity then
      invalid_arg "Simplex: free structural variables are not supported"
  done;
  let xval = Array.make ntotal 0. in
  (* nonbasic structural variables start at a finite bound *)
  for j = 0 to n - 1 do
    xval.(j) <- (if lb.(j) > neg_infinity then lb.(j) else ub.(j))
  done;
  let slk = Array.map slack_coeff p.rows in
  let sigma = Array.make m 1. in
  Array.iteri
    (fun i (r : row) ->
      (* an Eq row's slack is fixed at 0: it never enters *)
      (match r.rel with Ge | Le -> () | Eq -> ub.(n + i) <- 0.);
      let residual = ref r.rhs in
      Array.iter (fun (j, a) -> residual := !residual -. (a *. xval.(j))) r.coeffs;
      sigma.(i) <- (if !residual >= 0. then 1. else -1.);
      xval.(n + m + i) <- abs_float !residual)
    p.rows;
  Lu.diagonal lu sigma;
  make_state ~eps ~n p.rows ~slk ~sigma ~lb ~ub ~xval ~rc:(Array.make ntotal 0.)
    ~basis:(Array.init m (fun i -> n + m + i))
    ~lu ~lu_stale:false ~work

let phase2_cost_of st (p : problem) =
  let cost = Array.make st.ntotal 0. in
  Array.blit p.objective 0 cost 0 st.n;
  cost

(* Package the current basic solution.  Structural values are clipped to
   the CURRENT column bounds in [st] (which may be tighter than the base
   problem's when called from the incremental solver).  [y_in_rho] says
   that [rho] still holds y = c_B B^-1 for [cost] from a refresh on the
   current basis and factors, so the duals are read off it instead of a
   second, identical BTRAN. *)
let extract_solution ?(y_in_rho = false) st (p : problem) cost =
  let x = Array.sub st.xval 0 st.n in
  for j = 0 to st.n - 1 do
    if x.(j) < st.lb.(j) then x.(j) <- st.lb.(j);
    if x.(j) > st.ub.(j) then x.(j) <- st.ub.(j)
  done;
  let activity = Array.make (Array.length p.rows) 0. in
  for i = 0 to Array.length p.rows - 1 do
    let coeffs = p.rows.(i).coeffs in
    let acc = ref 0. in
    for t = 0 to Array.length coeffs - 1 do
      let j, a = coeffs.(t) in
      acc := !acc +. (a *. x.(j))
    done;
    activity.(i) <- !acc
  done;
  let value = ref 0. in
  for j = 0 to Array.length p.objective - 1 do
    let c = p.objective.(j) in
    if c <> 0. then value := !value +. (c *. x.(j))
  done;
  let duals = if y_in_rho then Array.sub st.rho 0 st.m else duals_for st cost in
  Optimal { value = !value; x; row_activity = activity; duals }

(* Two-phase primal from a fresh state: the cold start and rebuild path of
   [Incremental.reoptimize].  On every phase-1 completion the artificial
   columns are pinned to 0 so that a later warm restart never re-opens
   them. *)
let two_phase st (p : problem) ~max_iters ~iters ~phase1_iters ~should_stop =
  let phase1_cost = Array.make st.ntotal 0. in
  for i = 0 to st.m - 1 do
    phase1_cost.(art_col st i) <- 1.
  done;
  let r1 = optimize st phase1_cost ~max_iters ~iters ~should_stop in
  phase1_iters := !iters;
  match r1 with
  | Iteration_limit _ -> Iteration_limit None
  | Unbounded ->
    (* phase 1 is bounded below by 0 *)
    Iteration_limit None
  | Infeasible _ -> assert false
  | Optimal _ ->
    let z1 = objective_value st phase1_cost in
    if z1 > 1e-6 *. float_of_int (max 1 st.m) then begin
      let pi = duals_for st phase1_cost in
      let certificate = ref [] in
      for i = st.m - 1 downto 0 do
        if abs_float pi.(i) > st.eps then certificate := (i, pi.(i)) :: !certificate
      done;
      for i = 0 to st.m - 1 do
        st.ub.(art_col st i) <- 0.
      done;
      Infeasible !certificate
    end
    else begin
      (* fix artificials at 0 and optimize the real objective.  A basic
         artificial may end phase 1 within its tolerance but off 0: the
         basic values are recomputed rather than clamped, so that they
         still solve B x_B = b - N x_N *)
      for i = 0 to st.m - 1 do
        st.ub.(art_col st i) <- 0.
      done;
      if not (compute_basic_values st) then raise Lu.Singular;
      let cost = phase2_cost_of st p in
      match optimize st cost ~max_iters ~iters ~should_stop with
      | Iteration_limit _ -> Iteration_limit (safe_dual_bound st cost)
      | Unbounded -> Unbounded
      | Infeasible _ ->
        (* [optimize] never reports infeasibility *)
        assert false
      | Optimal _ -> extract_solution st p cost
    end

let default_max_iters ~m ~n = 200 + (20 * (m + n))
let never_stop () = false

(* --- row edits, spliced in place ----------------------------------- *)

(* [a] with room for [len] entries, its first [keep] kept; new room
   holds [zero]. *)
let fit a len keep zero =
  if len <= Array.length a then a
  else begin
    let b = Array.make (max len (2 * Array.length a)) zero in
    Array.blit a 0 b 0 keep;
    b
  end

(* Leave a state as an edit outside a pivot must: no pivot row ([arow]
   all zero), [pos] indexing [basis], the reduced-cost refresh count
   restarted and the LU rebuilt at the next solve. *)
let after_edit st =
  Array.fill st.arow 0 st.ntotal 0.;
  st.width <- 0;
  Array.fill st.pos 0 st.ntotal (-1);
  for k = 0 to st.m - 1 do
    st.pos.(st.basis.(k)) <- k
  done;
  st.pivots_since_refresh <- 0;
  st.lu_stale <- true

(* Append row [r] with its slack basic in a new last position.  The new
   slack is column [n + m]; the artificials shift up by one and the new
   one, of the slack's sign, goes last, pinned at 0 like every
   artificial after phase 1.  Row [m] ends each of its columns, which so
   keep their entries in ascending row order. *)
let insert_row st (r : row) =
  let n = st.n and m = st.m and nt = st.ntotal in
  let m' = m + 1 and nt' = nt + 2 in
  let cols, vals = row_entries r in
  let k = Array.length cols in
  let nnz = st.rstart.(m) in
  st.rstart <- fit st.rstart (m' + 1) (m + 1) 0;
  st.rstart.(m') <- nnz + k;
  st.rcol <- fit st.rcol (nnz + k) nnz 0;
  st.rval <- fit st.rval (nnz + k) nnz 0.;
  Array.blit cols 0 st.rcol nnz k;
  Array.blit vals 0 st.rval nnz k;
  st.crow <- fit st.crow (nnz + k) nnz 0;
  st.cval <- fit st.cval (nnz + k) nnz 0.;
  let cstart = st.cstart and crow = st.crow and cval = st.cval in
  (* the columns after new entry [t] move up by [t + 1] *)
  let hi = ref nnz in
  for t = k - 1 downto 0 do
    let lo = cstart.(cols.(t) + 1) in
    Array.blit crow lo crow (lo + t + 1) (!hi - lo);
    Array.blit cval lo cval (lo + t + 1) (!hi - lo);
    crow.(lo + t) <- m;
    cval.(lo + t) <- vals.(t);
    hi := lo
  done;
  let t = ref 0 in
  for j = 0 to n - 1 do
    while !t < k && cols.(!t) <= j do
      incr t
    done;
    cstart.(j + 1) <- cstart.(j + 1) + !t
  done;
  let c_s = slack_coeff r in
  st.slk <- fit st.slk m' m 0.;
  st.slk.(m) <- c_s;
  st.sigma <- fit st.sigma m' m 0.;
  st.sigma.(m) <- c_s;
  st.rhs <- fit st.rhs m' m 0.;
  st.rhs.(m) <- r.rhs;
  st.basis <- fit st.basis m' m 0;
  for q = 0 to m - 1 do
    if st.basis.(q) >= n + m then st.basis.(q) <- st.basis.(q) + 1
  done;
  st.basis.(m) <- n + m;
  st.vrow <- fit st.vrow m' 0 0.;
  st.vpos <- fit st.vpos m' 0 0.;
  st.rho <- fit st.rho m' 0 0.;
  st.alpha <- fit st.alpha m' 0 0.;
  st.nzrow <- fit st.nzrow m' 0 0;
  let shift a ~slack ~art =
    let a = fit a nt' nt 0. in
    Array.blit a (n + m) a (n + m + 1) m;
    a.(n + m) <- slack;
    a.(nt' - 1) <- art;
    a
  in
  st.lb <- shift st.lb ~slack:0. ~art:0.;
  st.ub <- shift st.ub ~slack:(match r.rel with Ge | Le -> infinity | Eq -> 0.) ~art:0.;
  st.xval <- shift st.xval ~slack:0. ~art:0.;
  st.rc <- shift st.rc ~slack:0. ~art:0.;
  st.arow <- fit st.arow nt' 0 0.;
  st.pcols <- fit st.pcols nt' 0 0;
  st.pos <- fit st.pos nt' 0 0;
  st.m <- m';
  st.ntotal <- nt';
  after_edit st

(* Delete row [i], whose slack is basic at position [slack_pos] and whose
   artificial is nonbasic: that position goes, the columns after the
   slack shift down by one and those after the artificial by two, and
   the rows after [i] are renumbered down by one. *)
let delete_row st i ~slack_pos =
  let n = st.n and m = st.m and nt = st.ntotal in
  let slack_i = n + i and art_i = n + m + i in
  let lo = st.rstart.(i) and hi = st.rstart.(i + 1) and nnz = st.rstart.(m) in
  Array.blit st.rcol hi st.rcol lo (nnz - hi);
  Array.blit st.rval hi st.rval lo (nnz - hi);
  for q = i + 1 to m - 1 do
    st.rstart.(q) <- st.rstart.(q + 1) - (hi - lo)
  done;
  let cstart = st.cstart and crow = st.crow and cval = st.cval in
  let w = ref 0 and start = ref 0 in
  for j = 0 to n - 1 do
    let stop = cstart.(j + 1) in
    for q = !start to stop - 1 do
      let row = crow.(q) in
      if row <> i then begin
        crow.(!w) <- (if row > i then row - 1 else row);
        cval.(!w) <- cval.(q);
        incr w
      end
    done;
    start := stop;
    cstart.(j + 1) <- !w
  done;
  let drop_at a = Array.blit a (i + 1) a i (m - 1 - i) in
  drop_at st.slk;
  drop_at st.sigma;
  drop_at st.rhs;
  let map j = if j < slack_i then j else if j < art_i then j - 1 else j - 2 in
  for q = 0 to m - 2 do
    st.basis.(q) <- map st.basis.(if q < slack_pos then q else q + 1)
  done;
  List.iter
    (fun a ->
      Array.blit a (slack_i + 1) a slack_i (art_i - slack_i - 1);
      Array.blit a (art_i + 1) a (art_i - 1) (nt - art_i - 1))
    [ st.lb; st.ub; st.xval; st.rc ];
  st.m <- m - 1;
  st.ntotal <- nt - 2;
  after_edit st

(* ------------------------------------------------------------------ *)
(* Incremental re-solving: bounded-variable dual simplex warm-started  *)
(* from the previous basis after column-bound and row edits.           *)
(* ------------------------------------------------------------------ *)

type dual_step =
  | DMoved
  | DOpt
  | DInfeasible of int  (* violated basic position with no eligible entering *)

(* One dual simplex step.  Leaving variable: the basic with the largest
   bound violation.  Entering: among nonbasic columns whose move can
   repair the violation (sign-eligible), the one minimizing the dual
   ratio |rc_j / alpha_rj| — the first reduced cost driven to zero —
   with larger-pivot tie-breaking for stability.  Dual feasibility of
   the reduced costs is an invariant of this update. *)
let dual_step st =
  let r = ref (-1) in
  let viol = ref st.eps in
  let below = ref false in
  let basis = st.basis and xval = st.xval and lb = st.lb and ub = st.ub in
  for i = 0 to st.m - 1 do
    let k = Array.unsafe_get basis i in
    let v = xval.(k) in
    if v < lb.(k) -. !viol then begin
      r := i;
      viol := lb.(k) -. v;
      below := true
    end
    else if v > ub.(k) +. !viol then begin
      r := i;
      viol := v -. ub.(k);
      below := false
    end
  done;
  if !r < 0 then DOpt
  else begin
    let r = !r in
    let below = !below in
    let k = st.basis.(r) in
    price_row st r ~arts:false;
    let row = st.arow in
    let best = ref (-1) in
    let best_ratio = ref infinity in
    let best_alpha = ref 0. in
    let pcols = st.pcols and pos = st.pos and rc = st.rc and eps = st.eps in
    for k = 0 to st.width - 1 do
      let j = Array.unsafe_get pcols k in
      let a = Array.unsafe_get row j in
      if abs_float a > eps && pos.(j) < 0 && lb.(j) < ub.(j) then begin
        let at_lower = xval.(j) <= lb.(j) +. eps in
        let eligible =
          if below then if at_lower then a < 0. else a > 0.
          else if at_lower then a > 0.
          else a < 0.
        in
        if eligible then begin
          let ratio = abs_float (rc.(j) /. a) in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps && abs_float a > abs_float !best_alpha)
          then begin
            best := j;
            best_ratio := ratio;
            best_alpha := a
          end
        end
      end
    done;
    if !best < 0 then DInfeasible r
    else begin
      let j = !best in
      let a = !best_alpha in
      ftran_col st j;
      let target = if below then st.lb.(k) else st.ub.(k) in
      let t = (xval.(k) -. target) /. a in
      let alpha = st.alpha in
      for i = 0 to st.m - 1 do
        let b = Array.unsafe_get basis i in
        xval.(b) <- xval.(b) -. (Array.unsafe_get alpha i *. t)
      done;
      xval.(j) <- xval.(j) +. t;
      xval.(k) <- target;
      basis_change st r j;
      DMoved
    end
  end

let dual_optimize st cost ~max_iters ~iters ~should_stop =
  let rec go () =
    if !iters >= max_iters || (!iters land stop_poll_mask = stop_poll_mask && should_stop ())
    then `Limit
    else begin
      if st.pivots_since_refresh > 100 then refresh_reduced_costs st cost;
      incr iters;
      match dual_step st with
      | DMoved -> go ()
      | DOpt -> `Opt
      | DInfeasible r -> `Infeasible r
    end
  in
  go ()

module Incremental = struct
  type info = {
    warm : bool;
    iters : int;
  }

  type t = {
    mutable base : problem;
    cur_lower : float array;
    cur_upper : float array;
    eps : float;
    mutable st : state;
    mutable cost : float array;  (* structural objective over ntotal columns *)
    mutable have_basis : bool;
    mutable info : info;
    mutable drop_fallbacks : int;
    work : work;
    flushed : work;  (* [work] at the end of the last [reoptimize] *)
  }

  let create ?(eps = 1e-7) (p : problem) =
    let base = { p with lower = Array.copy p.lower; upper = Array.copy p.upper } in
    let work = { npivots = 0; nrefresh = 0; nrefactor = 0 } in
    let st = init_state ~eps ~work ~lu:(Lu.create ()) base in
    {
      base;
      cur_lower = Array.copy base.lower;
      cur_upper = Array.copy base.upper;
      eps;
      st;
      cost = phase2_cost_of st base;
      have_basis = false;
      info = { warm = false; iters = 0 };
      drop_fallbacks = 0;
      work;
      flushed = { npivots = 0; nrefresh = 0; nrefactor = 0 };
    }

  let nrows t = Array.length t.base.rows
  let last_info t = t.info
  let drop_fallbacks t = t.drop_fallbacks
  let invalidate t = t.have_basis <- false

  (* Rebuild the state for the edited base problem without a usable
     basis; the next [reoptimize] solves cold. *)
  let resync_cold t =
    t.have_basis <- false;
    let st = init_state ~eps:t.eps ~work:t.work ~lu:t.st.lu t.base in
    t.st <- st;
    t.cost <- phase2_cost_of st t.base

  (* Append [r] and keep the basis: the new row's slack becomes basic in
     a new last position ([insert_row]).  The slack has zero cost, so
     the duals of the old rows and every reduced cost are unchanged and
     dual feasibility survives; the slack's (possibly out-of-bound)
     value is repaired by the next dual-simplex reoptimize.  The LU is
     rebuilt at the next solve. *)
  let add_row t (r : row) =
    let idx = Array.length t.base.rows in
    t.base <- { t.base with rows = Array.append t.base.rows [| r |] };
    if not t.have_basis then resync_cold t
    else begin
      insert_row t.st r;
      if Array.length t.cost < t.st.ntotal then begin
        let cost = Array.make (Array.length t.st.lb) 0. in
        Array.blit t.cost 0 cost 0 t.st.n;
        t.cost <- cost
      end
    end;
    idx

  (* Delete row [i] while keeping the basis warm when possible.  If the
     row's slack is basic, at any position, the basis matrix has the unit
     column slk_i e_i there, so deleting row [i] with that position
     leaves a nonsingular basis for the remaining system (expand the
     determinant along the column), with unchanged basic values, duals
     and reduced costs: the slack has zero cost, so row [i]'s dual is 0.
     A nonbasic slack is first pivoted in at the position where its
     transformed column B^-1 a_s is largest.  A basic artificial, or a
     slack column whose largest transformed entry is numerically
     unusable, drops the basis: the next [reoptimize] solves cold.  Rows
     above [i] shift down by one. *)
  let drop_row t i =
    let nr = Array.length t.base.rows in
    if i < 0 || i >= nr then invalid_arg "Simplex.Incremental.drop_row";
    let rows' =
      Array.init (nr - 1) (fun k -> if k < i then t.base.rows.(k) else t.base.rows.(k + 1))
    in
    t.base <- { t.base with rows = rows' };
    if not t.have_basis then resync_cold t
    else begin
      let st = t.st in
      let n = st.n and m = st.m in
      let slack_i = n + i and art_i = n + m + i in
      let slack_pos =
        if st.pos.(art_i) >= 0 then -1
        else if st.pos.(slack_i) >= 0 then st.pos.(slack_i)
        else
          match
            if st.lu_stale then refactor st;
            ftran_col st slack_i
          with
          | exception Lu.Singular -> -1
          | () ->
            let r = ref 0 in
            for k = 1 to m - 1 do
              if abs_float st.alpha.(k) > abs_float st.alpha.(!r) then r := k
            done;
            if m > 0 && abs_float st.alpha.(!r) > st.eps then begin
              (* primal pivot; any dual-feasibility damage is repaired by
                 the reduced-cost refresh + nonbasic resting of the next
                 warm start *)
              st.pos.(st.basis.(!r)) <- -1;
              st.basis.(!r) <- slack_i;
              st.pos.(slack_i) <- !r;
              !r
            end
            else -1
      in
      if slack_pos < 0 then begin
        t.drop_fallbacks <- t.drop_fallbacks + 1;
        resync_cold t
      end
      else delete_row st i ~slack_pos
    end

  let fix t j v =
    t.cur_lower.(j) <- v;
    t.cur_upper.(j) <- v

  let unfix t j =
    t.cur_lower.(j) <- t.base.lower.(j);
    t.cur_upper.(j) <- t.base.upper.(j)

  (* Restore a dual-feasible resting point after bound and row edits:
     refactor if an edit changed the basis, refresh the reduced costs
     (one BTRAN, one pass over A), put every nonbasic column on the bound
     its reduced cost prefers, and recompute the basic values (one pass
     over A, one FTRAN).  Returns false — caller rebuilds cold — when a
     wrong-sign column has no finite bound to rest on or numerics have
     degraded. *)
  let warm_start t =
    let st = t.st in
    Array.blit t.cur_lower 0 st.lb 0 st.n;
    Array.blit t.cur_upper 0 st.ub 0 st.n;
    if st.lu_stale then refactor st;
    refresh_reduced_costs st t.cost;
    let ok = ref true in
    (try
       for j = 0 to st.ntotal - 1 do
         if st.pos.(j) < 0 then begin
           let lo = st.lb.(j) and up = st.ub.(j) in
           if lo = up then st.xval.(j) <- lo
           else begin
             let r = st.rc.(j) in
             if r > st.eps then
               if lo = neg_infinity then begin
                 ok := false;
                 raise Exit
               end
               else st.xval.(j) <- lo
             else if r < -.st.eps then
               if up = infinity then begin
                 ok := false;
                 raise Exit
               end
               else st.xval.(j) <- up
             else begin
               (* indifferent: keep the current resting bound if any *)
               let x = st.xval.(j) in
               if up < infinity && abs_float (x -. up) <= st.eps then st.xval.(j) <- up
               else if lo > neg_infinity then st.xval.(j) <- lo
               else st.xval.(j) <- up
             end
           end
         end
       done
     with Exit -> ());
    !ok && compute_basic_values st

  let flush_stats t stats ~iters ~phase1_iters =
    let w = t.work and f = t.flushed in
    (match stats with
    | None -> ()
    | Some s ->
      s.calls <- s.calls + 1;
      s.iterations <- s.iterations + iters;
      s.phase1_iters <- s.phase1_iters + phase1_iters;
      s.phase2_iters <- s.phase2_iters + (iters - phase1_iters);
      s.pivots <- s.pivots + (w.npivots - f.npivots);
      s.refreshes <- s.refreshes + (w.nrefresh - f.nrefresh);
      s.refactors <- s.refactors + (w.nrefactor - f.nrefactor));
    f.npivots <- w.npivots;
    f.nrefresh <- w.nrefresh;
    f.nrefactor <- w.nrefactor

  let cold t ~max_iters ~iters ~phase1_iters ~should_stop =
    let p = { t.base with lower = Array.copy t.cur_lower; upper = Array.copy t.cur_upper } in
    let st = init_state ~eps:t.eps ~work:t.work ~lu:t.st.lu p in
    t.st <- st;
    t.cost <- phase2_cost_of st p;
    let r =
      try two_phase st p ~max_iters ~iters ~phase1_iters ~should_stop
      with Lu.Singular -> Iteration_limit None
    in
    (match r with
    | Optimal _ | Infeasible _ -> t.have_basis <- true
    | Unbounded | Iteration_limit _ -> t.have_basis <- false);
    r

  let reoptimize ?max_iters ?(should_stop = never_stop) ?stats t =
    let max_iters =
      match max_iters with
      | Some k -> k
      | None -> default_max_iters ~m:t.st.m ~n:t.st.n
    in
    let iters = ref 0 in
    let phase1_iters = ref 0 in
    let warm_solve () =
      let st = t.st in
      let pivots = st.work.npivots in
      match dual_optimize st t.cost ~max_iters ~iters ~should_stop with
      | `Opt ->
        (* no pivot: the one dual step found no violated row and priced
           none, so [rho] still holds [warm_start]'s refresh *)
        extract_solution ~y_in_rho:(st.work.npivots = pivots) st t.base t.cost
      | `Infeasible vr ->
        (* Farkas witness: row vr of B^-1 *)
        price_row st vr ~arts:false;
        let witness = ref [] in
        for i = st.m - 1 downto 0 do
          let a = st.rho.(i) in
          if abs_float a > st.eps then witness := (i, a) :: !witness
        done;
        Infeasible !witness
      | `Limit -> Iteration_limit (safe_dual_bound st t.cost)
    in
    (* dual pivots preserve dual feasibility, so the basis stays
       warm-startable even after infeasible or truncated calls *)
    let outcome, warm =
      match t.have_basis && warm_start t with
      | true -> (
        try (warm_solve (), true)
        with Lu.Singular -> (cold t ~max_iters ~iters ~phase1_iters ~should_stop, false))
      | false -> (cold t ~max_iters ~iters ~phase1_iters ~should_stop, false)
      | exception Lu.Singular -> (cold t ~max_iters ~iters ~phase1_iters ~should_stop, false)
    in
    t.info <- { warm; iters = !iters };
    flush_stats t stats ~iters:!iters ~phase1_iters:!phase1_iters;
    outcome
end
