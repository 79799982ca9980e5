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
}

let stats () =
  { calls = 0; iterations = 0; phase1_iters = 0; phase2_iters = 0; pivots = 0; refreshes = 0 }

(* Internal state: every row is an equality over [ntotal] columns
   (structural, then one slack per row, then one artificial per row).
   [tab] is the current tableau B^-1 A over the first [n + m] columns
   only: artificial k's column is [asign.(k)] (+1 or -1) times slack k's
   column, so it is derived on read (see [stored_col]) rather than stored.
   [rc], [lb], [ub], [xval] and [in_basis] cover all [ntotal] columns.
   [xval] holds the value of every column, nonbasic ones resting at a
   bound.  [rhs] keeps the original right-hand sides so dual objective
   values and warm restarts can be computed without the problem record.

   Stamps.  Once a state is built, [pivot_tableau] is the only writer of
   [tab].  It stamps the rows it updates and the stored columns where
   the pivot row is nonzero with the new pivot count, so the three
   vectors a warm re-solve derives from the tableau — basic values,
   reduced costs, duals — are cached with the pivot count they were
   computed at and only their stale entries are recomputed, with the
   same per-entry arithmetic in the same order.  A cache count of -1
   means "never computed": every entry is stale. *)
type state = {
  m : int;
  n : int;  (* structural columns *)
  ntotal : int;
  tab : float array array;  (* m rows of n + m stored columns *)
  lb : float array;
  ub : float array;
  xval : float array;
  basis : int array;  (* column basic in each row *)
  in_basis : bool array;
  sigma : float array;  (* artificial sign per row *)
  asign : float array;  (* artificial column = asign * slack column, per row *)
  rc : float array;  (* reduced costs, kept in sync by pivots *)
  rhs : float array;
  w : float array;  (* asign * sigma * rhs per row: B^-1 b is the slack block times [w] *)
  nz : int array;  (* scratch: nonzero columns of the current pivot row *)
  row_stamp : int array;  (* per row: pivot count of its last update *)
  col_stamp : int array;  (* per stored column: pivot count of the last pivot row nonzero there *)
  bval : float array;  (* per row: B^-1 b - B^-1 N x_N at [bval_at] *)
  contrib : float array;  (* per column: the x_N entry [bval] used, 0 if basic *)
  mutable bval_at : int;
  mutable rc_cost : float array;  (* cost vector of the last refresh *)
  mutable rc_at : int;
  dual : float array;  (* per row: [duals_for dual_cost] at [dual_at] *)
  mutable dual_cost : float array;
  mutable dual_at : int;
  dirty : int array;  (* scratch: stale stored columns *)
  off : int array;  (* scratch: nonbasic columns off zero *)
  chg : int array;  (* scratch: stored columns whose contribution changed *)
  mutable pivots_since_refresh : int;
  mutable npivots : int;
  mutable nrefresh : int;
  eps : float;
}

(* A state over a freshly built tableau, with every cache stale. *)
let make_state ~eps ~m ~n ~tab ~lb ~ub ~xval ~basis ~in_basis ~sigma ~asign ~rhs ~npivots
    ~nrefresh ~pivots_since_refresh =
  let ntotal = n + (2 * m) in
  {
    m;
    n;
    ntotal;
    tab;
    lb;
    ub;
    xval;
    basis;
    in_basis;
    sigma;
    asign;
    rc = Array.make ntotal 0.;
    rhs;
    w = Array.init m (fun k -> asign.(k) *. sigma.(k) *. rhs.(k));
    nz = Array.make (n + m) 0;
    row_stamp = Array.make m 0;
    col_stamp = Array.make (n + m) 0;
    bval = Array.make m 0.;
    contrib = Array.make ntotal 0.;
    bval_at = -1;
    rc_cost = [||];
    rc_at = -1;
    dual = Array.make m 0.;
    dual_cost = [||];
    dual_at = -1;
    dirty = Array.make (n + m) 0;
    off = Array.make ntotal 0;
    chg = Array.make ntotal 0;
    pivots_since_refresh;
    npivots;
    nrefresh;
    eps;
  }

type step =
  | Moved  (* a pivot or bound flip happened *)
  | Opt
  | Unbd

let art_col st i = st.n + st.m + i

(* Where column [j]'s tableau entries live: the stored column and the
   sign to apply.  Artificial k reads slack k ([n + k]) times [asign.(k)];
   multiplying by +1 or -1 is exact, so a derived entry equals the one a
   stored artificial column would hold, up to the sign of a zero. *)
let stored_col st j = if j < st.n + st.m then j else j - st.m
let col_sign st j = if j < st.n + st.m then 1. else st.asign.(j - st.n - st.m)

(* Recompute the reduced-cost row: rc_j = c_j - cB B^-1 A_j.  Done once
   per phase and periodically to flush numerical drift; pivots keep it in
   sync incrementally.  Under the cost vector of the last refresh only
   the columns stamped since then (and their artificial twins) are
   recomputed: a pivot writes [rc] only on the columns it stamps, and
   any other column has the same entries as at the last refresh and a
   zero in every pivot row, the only rows whose cB changed.  Each entry
   subtracts its terms in row order, as the full pass does. *)
let refresh_reduced_costs st cost =
  let all = not (cost == st.rc_cost && st.rc_at >= 0) in
  let d = ref 0 in
  for c = 0 to st.n + st.m - 1 do
    if all || st.col_stamp.(c) > st.rc_at then begin
      st.dirty.(!d) <- c;
      incr d;
      st.rc.(c) <- cost.(c);
      (* artificial k = c - n sits at n + m + k = c + m *)
      if c >= st.n then st.rc.(c + st.m) <- cost.(c + st.m)
    end
  done;
  let d = !d in
  if d > 0 then
    for i = 0 to st.m - 1 do
      let cb = cost.(st.basis.(i)) in
      if cb <> 0. then begin
        let row = st.tab.(i) in
        for t = 0 to d - 1 do
          let c = Array.unsafe_get st.dirty t in
          st.rc.(c) <- st.rc.(c) -. (cb *. row.(c));
          if c >= st.n then
            st.rc.(c + st.m) <- st.rc.(c + st.m) -. (cb *. (st.asign.(c - st.n) *. row.(c)))
        done
      end
    done;
  st.rc_cost <- cost;
  st.rc_at <- st.npivots;
  st.pivots_since_refresh <- 0;
  st.nrefresh <- st.nrefresh + 1

(* Entering column: nonbasic at lower bound with negative reduced cost, or
   at upper bound with positive reduced cost.  Dantzig rule by default,
   Bland's rule (first eligible index) when [bland]. *)
let choose_entering st ~bland =
  let best = ref (-1) in
  let best_score = ref st.eps in
  let consider j =
    if (not st.in_basis.(j)) && st.lb.(j) < st.ub.(j) then begin
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

(* Pivot column [j] into the basis on row [r]: eliminate it from every
   other row and from the reduced-cost row, swap basis bookkeeping.  The
   pivot row is divided once and its nonzero columns collected into
   [st.nz]; the updates then touch those columns only, since a zero
   pivot-row entry would leave [x -. f *. 0.] = [x].  The rows written
   and the columns where the pivot row is nonzero before the division
   (a quotient may underflow to 0) get the new pivot count as stamp. *)
let pivot_tableau st r j =
  let ns = st.n + st.m in
  let stamp = st.npivots + 1 in
  let js = stored_col st j and jsg = col_sign st j in
  let row_r = st.tab.(r) in
  let piv = jsg *. row_r.(js) in
  let nz = st.nz in
  let cnt = ref 0 in
  st.row_stamp.(r) <- stamp;
  for c = 0 to ns - 1 do
    let x = row_r.(c) in
    if x <> 0. then begin
      st.col_stamp.(c) <- stamp;
      let v = x /. piv in
      row_r.(c) <- v;
      if v <> 0. then begin
        nz.(!cnt) <- c;
        incr cnt
      end
    end
  done;
  let cnt = !cnt in
  for i = 0 to st.m - 1 do
    if i <> r then begin
      let row_i = st.tab.(i) in
      let f = jsg *. row_i.(js) in
      if f <> 0. then begin
        st.row_stamp.(i) <- stamp;
        for t = 0 to cnt - 1 do
          let c = Array.unsafe_get nz t in
          Array.unsafe_set row_i c (Array.unsafe_get row_i c -. (f *. Array.unsafe_get row_r c))
        done
      end
    end
  done;
  let rcj = st.rc.(j) in
  if rcj <> 0. then
    for t = 0 to cnt - 1 do
      let c = nz.(t) in
      st.rc.(c) <- st.rc.(c) -. (rcj *. row_r.(c));
      if c >= st.n then begin
        (* slack k = c - n: artificial k's entry is asign_k times it *)
        let k = c - st.n in
        st.rc.(ns + k) <- st.rc.(ns + k) -. (rcj *. (st.asign.(k) *. row_r.(c)))
      end
    done;
  let leaving = st.basis.(r) in
  st.basis.(r) <- j;
  st.in_basis.(j) <- true;
  st.in_basis.(leaving) <- false;
  st.pivots_since_refresh <- st.pivots_since_refresh + 1;
  st.npivots <- stamp

(* One primal simplex step for the given cost vector. *)
let step st cost ~bland =
  if st.pivots_since_refresh > 100 then refresh_reduced_costs st cost;
  let j = choose_entering st ~bland in
  if j < 0 then Opt
  else begin
    let at_lower = st.xval.(j) <= st.lb.(j) +. st.eps in
    let dir = if at_lower then 1. else -1. in
    let js = stored_col st j and jsg = col_sign st j in
    (* entering moves by [dir * delta], basic i by [-dir * tab[i][j] * delta] *)
    let delta = ref (st.ub.(j) -. st.lb.(j)) in
    let blocking = ref (-1) in
    let blocking_to_upper = ref false in
    for i = 0 to st.m - 1 do
      let rate = -.dir *. (jsg *. st.tab.(i).(js)) in
      let k = st.basis.(i) in
      if rate > st.eps && st.ub.(k) < infinity then begin
        let room = (st.ub.(k) -. st.xval.(k)) /. rate in
        if room < !delta -. st.eps || (room < !delta +. st.eps && !blocking < 0) then begin
          delta := max room 0.;
          blocking := i;
          blocking_to_upper := true
        end
      end
      else if rate < -.st.eps && st.lb.(k) > neg_infinity then begin
        let room = (st.xval.(k) -. st.lb.(k)) /. -.rate in
        if room < !delta -. st.eps || (room < !delta +. st.eps && !blocking < 0) then begin
          delta := max room 0.;
          blocking := i;
          blocking_to_upper := false
        end
      end
    done;
    if !delta = infinity then Unbd
    else begin
      let d = !delta in
      (* apply the move *)
      for i = 0 to st.m - 1 do
        let k = st.basis.(i) in
        st.xval.(k) <- st.xval.(k) -. (dir *. (jsg *. st.tab.(i).(js)) *. d)
      done;
      st.xval.(j) <- st.xval.(j) +. (dir *. d);
      (match !blocking with
      | -1 ->
        (* bound flip: entering traverses to its opposite bound *)
        st.xval.(j) <- (if at_lower then st.ub.(j) else st.lb.(j))
      | r ->
        let leaving = st.basis.(r) in
        st.xval.(leaving) <- (if !blocking_to_upper then st.ub.(leaving) else st.lb.(leaving));
        pivot_tableau st r j);
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

(* Row dual values for a cost vector: pi_i = (sum_k cB_k tab[k][art_i]) / sigma_i,
   since the artificial column of row i is sigma_i * e_i in the original
   matrix and the tableau holds B^-1 applied to it.  The sums are
   accumulated a basic row at a time, skipping rows of zero cost; each
   pi_i still adds its terms in row order.  Under the cost vector of the
   previous call only the rows whose slack column was stamped since then
   are recomputed, by the argument of [refresh_reduced_costs].  Returns
   a fresh array. *)
let duals_for st cost =
  let n = st.n in
  let s = st.dual in
  let d = ref 0 in
  if cost == st.dual_cost && st.dual_at >= 0 then begin
    for i = 0 to st.m - 1 do
      if st.col_stamp.(n + i) > st.dual_at then begin
        st.dirty.(!d) <- i;
        incr d
      end
    done
  end
  else begin
    for i = 0 to st.m - 1 do
      st.dirty.(i) <- i
    done;
    d := st.m;
    st.dual_cost <- cost
  end;
  let d = !d in
  if d > 0 then begin
    for t = 0 to d - 1 do
      s.(st.dirty.(t)) <- 0.
    done;
    for k = 0 to st.m - 1 do
      let cb = cost.(st.basis.(k)) in
      if cb <> 0. then begin
        let row = st.tab.(k) in
        for t = 0 to d - 1 do
          let i = Array.unsafe_get st.dirty t in
          s.(i) <- s.(i) +. (cb *. (st.asign.(i) *. row.(n + i)))
        done
      end
    done;
    for t = 0 to d - 1 do
      let i = st.dirty.(t) in
      s.(i) <- s.(i) /. st.sigma.(i)
    done
  end;
  st.dual_at <- st.npivots;
  Array.copy s

(* Lagrangian bound from the current simplex multipliers.  In equality
   form, z(y) = y.b + sum_j min over [lb_j, ub_j] of rc_j x_j is a valid
   lower bound on the optimum for ANY y; with y = cB B^-1 the reduced
   costs rc = c - y A drop out of the basis (exactly 0. after a refresh,
   since basic tableau columns are exact unit vectors).  The min term is
   evaluated with NO tolerance: dropping a wrong-sign term could only
   overstate the bound.  A nonzero rc against an infinite bound — however
   tiny — makes the term -infinity, so the bound degenerates to None;
   tiny rc against a finite bound contributes its exact (downward-safe)
   correction instead of being skipped. *)
let safe_dual_bound st cost =
  refresh_reduced_costs st cost;
  let y = duals_for st cost in
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

(* Build a fresh state for [p]: artificial basis, rows normalized so the
   basic artificial column is +1. *)
let init_state ~eps (p : problem) =
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
  let tab = Array.make_matrix m (n + m) 0. in
  let xval = Array.make ntotal 0. in
  (* nonbasic structural variables start at a finite bound *)
  for j = 0 to n - 1 do
    xval.(j) <- (if lb.(j) > neg_infinity then lb.(j) else ub.(j))
  done;
  let sigma = Array.make m 1. in
  let asign = Array.make m 1. in
  let basis = Array.init m (fun i -> n + m + i) in
  let in_basis = Array.make ntotal false in
  let rhs = Array.map (fun (r : row) -> r.rhs) p.rows in
  Array.iteri
    (fun i r ->
      Array.iter (fun (j, a) -> tab.(i).(j) <- tab.(i).(j) +. a) r.coeffs;
      match r.rel with
      | Ge -> tab.(i).(n + i) <- -1.
      | Le -> tab.(i).(n + i) <- 1.
      | Eq ->
        (* a unit slack fixed at 0: it never enters, but keeps the
           artificial column a signed copy of the slack column *)
        tab.(i).(n + i) <- 1.;
        ub.(n + i) <- 0.)
    p.rows;
  (* artificial columns and initial basic values *)
  for i = 0 to m - 1 do
    let residual = ref p.rows.(i).rhs in
    Array.iter (fun (j, a) -> residual := !residual -. (a *. xval.(j))) p.rows.(i).coeffs;
    (* slack starts at 0, so it does not contribute *)
    sigma.(i) <- (if !residual >= 0. then 1. else -1.);
    (* the artificial column is sigma_i * e_i, the slack column
       tab[i][n+i] * e_i, so the former is asign_i times the latter *)
    asign.(i) <- tab.(i).(n + i) *. sigma.(i);
    in_basis.(n + m + i) <- true;
    xval.(n + m + i) <- abs_float !residual;
    (* normalize the row so the basic artificial column is +1 *)
    if sigma.(i) < 0. then begin
      let row = tab.(i) in
      for c = 0 to n + m - 1 do
        row.(c) <- -.row.(c)
      done
    end
  done;
  make_state ~eps ~m ~n ~tab ~lb ~ub ~xval ~basis ~in_basis ~sigma ~asign ~rhs ~npivots:0
    ~nrefresh:0 ~pivots_since_refresh:0

let phase2_cost_of st (p : problem) =
  let cost = Array.make st.ntotal 0. in
  Array.blit p.objective 0 cost 0 st.n;
  cost

(* Package the current basic solution.  Structural values are clipped to
   the CURRENT column bounds in [st] (which may be tighter than the base
   problem's when called from the incremental solver). *)
let extract_solution st (p : problem) cost =
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
  Optimal { value = !value; x; row_activity = activity; duals = duals_for st cost }

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
      (* fix artificials at 0 and optimize the real objective *)
      for i = 0 to st.m - 1 do
        st.ub.(art_col st i) <- 0.;
        st.xval.(art_col st i) <- min st.xval.(art_col st i) 0.
      done;
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

let flush_stats stats st ~iters ~phase1_iters ~pivots0 ~refresh0 =
  match stats with
  | None -> ()
  | Some s ->
    s.calls <- s.calls + 1;
    s.iterations <- s.iterations + iters;
    s.phase1_iters <- s.phase1_iters + phase1_iters;
    s.phase2_iters <- s.phase2_iters + (iters - phase1_iters);
    s.pivots <- s.pivots + (st.npivots - pivots0);
    s.refreshes <- s.refreshes + (st.nrefresh - refresh0)

let never_stop () = false

(* ------------------------------------------------------------------ *)
(* Incremental re-solving: bounded-variable dual simplex warm-started  *)
(* from the previous basis after column-bound edits.                   *)
(* ------------------------------------------------------------------ *)

type dual_step =
  | DMoved
  | DOpt
  | DInfeasible of int  (* violated basic row with no eligible entering *)

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
  for i = 0 to st.m - 1 do
    let k = st.basis.(i) in
    let v = st.xval.(k) in
    if v < st.lb.(k) -. !viol then begin
      r := i;
      viol := st.lb.(k) -. v;
      below := true
    end
    else if v > st.ub.(k) +. !viol then begin
      r := i;
      viol := v -. st.ub.(k);
      below := false
    end
  done;
  if !r < 0 then DOpt
  else begin
    let r = !r in
    let below = !below in
    let k = st.basis.(r) in
    let row = st.tab.(r) in
    let best = ref (-1) in
    let best_ratio = ref infinity in
    let best_alpha = ref 0. in
    for j = 0 to st.ntotal - 1 do
      if (not st.in_basis.(j)) && st.lb.(j) < st.ub.(j) then begin
        let a = col_sign st j *. row.(stored_col st j) in
        if abs_float a > st.eps then begin
          let at_lower = st.xval.(j) <= st.lb.(j) +. st.eps in
          let eligible =
            if below then if at_lower then a < 0. else a > 0.
            else if at_lower then a > 0.
            else a < 0.
          in
          if eligible then begin
            let ratio = abs_float (st.rc.(j) /. a) in
            if
              ratio < !best_ratio -. st.eps
              || (ratio < !best_ratio +. st.eps && abs_float a > abs_float !best_alpha)
            then begin
              best := j;
              best_ratio := ratio;
              best_alpha := a
            end
          end
        end
      end
    done;
    if !best < 0 then DInfeasible r
    else begin
      let j = !best in
      let a = !best_alpha in
      let js = stored_col st j and jsg = col_sign st j in
      let target = if below then st.lb.(k) else st.ub.(k) in
      let t = (st.xval.(k) -. target) /. a in
      for i = 0 to st.m - 1 do
        let b = st.basis.(i) in
        st.xval.(b) <- st.xval.(b) -. (jsg *. st.tab.(i).(js) *. t)
      done;
      st.xval.(j) <- st.xval.(j) +. t;
      st.xval.(k) <- target;
      pivot_tableau st r j;
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
    mutable pivots_at_rebuild : int;
    mutable drop_fallbacks : int;
    mutable period_rebuilds : int;
  }

  (* Periodically refactor from scratch to flush accumulated numerical
     drift in the tableau. *)
  let rebuild_period = 2000

  let create ?(eps = 1e-7) (p : problem) =
    let base = { p with lower = Array.copy p.lower; upper = Array.copy p.upper } in
    let st = init_state ~eps base in
    {
      base;
      cur_lower = Array.copy base.lower;
      cur_upper = Array.copy base.upper;
      eps;
      st;
      cost = phase2_cost_of st base;
      have_basis = false;
      info = { warm = false; iters = 0 };
      pivots_at_rebuild = 0;
      drop_fallbacks = 0;
      period_rebuilds = 0;
    }

  let nrows t = Array.length t.base.rows
  let last_info t = t.info
  let drop_fallbacks t = t.drop_fallbacks
  let period_rebuilds t = t.period_rebuilds
  let invalidate t = t.have_basis <- false

  (* Rebuild the state for the edited base problem without a usable
     basis; the next [reoptimize] solves cold. *)
  let resync_cold t =
    t.have_basis <- false;
    let st = init_state ~eps:t.eps t.base in
    t.st <- st;
    t.cost <- phase2_cost_of st t.base;
    t.pivots_at_rebuild <- 0

  (* Splice [r] into the live tableau while preserving the current basis:
     the new row (as an equality over a fresh slack and artificial) is
     eliminated against every basic column — yielding the B^-1-transformed
     row — and its slack is made basic.  Since the slack has zero cost the
     duals of the old rows are unchanged, so dual feasibility survives;
     the slack's (possibly out-of-bound) primal value is repaired by the
     next dual-simplex reoptimize.  Column layout: the new slack lands at
     index [n + m] and the new artificial last, so old columns at or above
     [n + m] (the old artificials) shift up by one. *)
  let add_row t (r : row) =
    let idx = Array.length t.base.rows in
    t.base <- { t.base with rows = Array.append t.base.rows [| r |] };
    if not t.have_basis then resync_cold t
    else begin
      let st = t.st in
      let n = st.n and m = st.m in
      let m' = m + 1 in
      let ns' = n + m' in
      let ntotal' = n + (2 * m') in
      let map j = if j < n + m then j else j + 1 in
      let slack_new = n + m in
      let art_new = ntotal' - 1 in
      let lb = Array.make ntotal' 0. in
      let ub = Array.make ntotal' infinity in
      let xval = Array.make ntotal' 0. in
      let in_basis = Array.make ntotal' false in
      for j = 0 to st.ntotal - 1 do
        let j' = map j in
        lb.(j') <- st.lb.(j);
        ub.(j') <- st.ub.(j);
        xval.(j') <- st.xval.(j);
        in_basis.(j') <- st.in_basis.(j)
      done;
      (match r.rel with Ge | Le -> () | Eq -> ub.(slack_new) <- 0.);
      ub.(art_new) <- 0.;
      let tab = Array.make_matrix m' ns' 0. in
      for i = 0 to m - 1 do
        Array.blit st.tab.(i) 0 tab.(i) 0 (n + m)
      done;
      let basis = Array.init m' (fun i -> if i < m then map st.basis.(i) else slack_new) in
      let c_s = match r.rel with Ge -> -1. | Le | Eq -> 1. in
      let sigma = Array.append st.sigma [| c_s |] in
      (* slack and artificial both carry c_s, so asign = 1 *)
      let asign = Array.append st.asign [| 1. |] in
      let rhs = Array.append st.rhs [| r.rhs |] in
      let d = tab.(m) in
      Array.iter (fun (j, a) -> d.(j) <- d.(j) +. a) r.coeffs;
      d.(slack_new) <- c_s;
      (* Basic columns are unit vectors across the tableau, so the
         elimination order is immaterial.  A basic artificial's entry in
         [d] is read through its slack, like any other. *)
      for i = 0 to m - 1 do
        let b = basis.(i) in
        let f = if b < ns' then d.(b) else asign.(b - ns') *. d.(b - m') in
        if f <> 0. then begin
          let row_i = tab.(i) in
          for c = 0 to ns' - 1 do
            d.(c) <- d.(c) -. (f *. row_i.(c))
          done
        end
      done;
      (* normalize so the basic slack column carries +1 *)
      if c_s < 0. then
        for c = 0 to ns' - 1 do
          d.(c) <- -.d.(c)
        done;
      in_basis.(slack_new) <- true;
      let st' =
        make_state ~eps:st.eps ~m:m' ~n ~tab ~lb ~ub ~xval ~basis ~in_basis ~sigma ~asign ~rhs
          ~npivots:st.npivots ~nrefresh:st.nrefresh ~pivots_since_refresh:st.pivots_since_refresh
      in
      t.st <- st';
      t.cost <- phase2_cost_of st' t.base
    end;
    idx

  (* Delete row [i] while keeping the basis warm when possible.  The row's
     own slack is pivoted into the row if it is not already basic there;
     with the slack basic in its own row, the basis matrix is block
     triangular in that row/column pair, so deleting the row together with
     its slack and artificial columns leaves a valid basis (and unchanged
     reduced costs) for the remaining system.  Every row, [Eq] rows
     included, has a unit slack column, so this pivot is available unless
     the entry is numerically unusable or the slack or artificial is basic
     in a different row; those cases fall back to a cold rebuild.  Rows
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
      let ok =
        if st.basis.(i) = slack_i then true
        else if (not st.in_basis.(slack_i)) && abs_float st.tab.(i).(slack_i) > st.eps then begin
          (* primal pivot; any dual-feasibility damage is repaired by the
             reduced-cost refresh + nonbasic resting of the next warm
             start *)
          pivot_tableau st i slack_i;
          true
        end
        else false
      in
      if (not ok) || st.in_basis.(art_i) then begin
        t.drop_fallbacks <- t.drop_fallbacks + 1;
        resync_cold t
      end
      else begin
        let m' = m - 1 in
        let ns' = n + m' in
        let ntotal' = n + (2 * m') in
        let map j = if j < slack_i then j else if j < art_i then j - 1 else j - 2 in
        let lb = Array.make ntotal' 0. in
        let ub = Array.make ntotal' infinity in
        let xval = Array.make ntotal' 0. in
        let in_basis = Array.make ntotal' false in
        for j = 0 to st.ntotal - 1 do
          if j <> slack_i && j <> art_i then begin
            let j' = map j in
            lb.(j') <- st.lb.(j);
            ub.(j') <- st.ub.(j);
            xval.(j') <- st.xval.(j);
            in_basis.(j') <- st.in_basis.(j)
          end
        done;
        let keep k = if k < i then k else k + 1 in
        let tab =
          Array.init m' (fun k' ->
              let src = st.tab.(keep k') and dst = Array.make ns' 0. in
              Array.blit src 0 dst 0 slack_i;
              Array.blit src (slack_i + 1) dst slack_i (ns' - slack_i);
              dst)
        in
        let st' =
          make_state ~eps:st.eps ~m:m' ~n ~tab ~lb ~ub ~xval
            ~basis:(Array.init m' (fun k' -> map st.basis.(keep k')))
            ~in_basis
            ~sigma:(Array.init m' (fun k' -> st.sigma.(keep k')))
            ~asign:(Array.init m' (fun k' -> st.asign.(keep k')))
            ~rhs:(Array.init m' (fun k' -> st.rhs.(keep k')))
            ~npivots:st.npivots ~nrefresh:st.nrefresh
            ~pivots_since_refresh:st.pivots_since_refresh
        in
        t.st <- st';
        t.cost <- phase2_cost_of st' t.base
      end
    end

  let fix t j v =
    t.cur_lower.(j) <- v;
    t.cur_upper.(j) <- v

  let unfix t j =
    t.cur_lower.(j) <- t.base.lower.(j);
    t.cur_upper.(j) <- t.base.upper.(j)

  (* Restore a dual-feasible resting point after bound edits: refresh the
     reduced costs, put every nonbasic column on the bound its reduced
     cost prefers, and recompute the basic values from the tableau
     (B^-1 e_k is the k-th artificial column over sigma_k).  Returns
     false — caller rebuilds cold — when a wrong-sign column has no
     finite bound to rest on or numerics have degraded. *)
  let warm_start t =
    let st = t.st in
    Array.blit t.cur_lower 0 st.lb 0 st.n;
    Array.blit t.cur_upper 0 st.ub 0 st.n;
    refresh_reduced_costs st t.cost;
    let ok = ref true in
    (try
       for j = 0 to st.ntotal - 1 do
         if not st.in_basis.(j) then begin
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
    if !ok then begin
      (* The nonbasic columns off zero, in column order, are the only ones
         that move a basic value.  A row keeps its cached value unless a
         pivot wrote it or it has a nonzero entry in a column whose
         contribution changed: the skipped terms would subtract zeros. *)
      let fresh = st.bval_at < 0 in
      let noff = ref 0 and nchg = ref 0 in
      for j = 0 to st.ntotal - 1 do
        let x = if st.in_basis.(j) then 0. else st.xval.(j) in
        if x <> 0. then begin
          st.off.(!noff) <- j;
          incr noff
        end;
        if x <> st.contrib.(j) then begin
          st.contrib.(j) <- x;
          st.chg.(!nchg) <- stored_col st j;
          incr nchg
        end
      done;
      let noff = !noff and nchg = !nchg in
      let n = st.n in
      for i = 0 to st.m - 1 do
        let row = st.tab.(i) in
        let stale = ref (fresh || st.row_stamp.(i) > st.bval_at) in
        let c = ref 0 in
        while (not !stale) && !c < nchg do
          if Array.unsafe_get row (Array.unsafe_get st.chg !c) <> 0. then stale := true;
          incr c
        done;
        if !stale then begin
          (* B^-1 b: artificial k's entry over sigma_k, times rhs_k, equals
             slack k's entry times [w.(k)], since the +-1 factors are exact *)
          let s = ref 0. in
          for k = 0 to st.m - 1 do
            let a = Array.unsafe_get row (n + k) in
            if a <> 0. then s := !s +. (a *. Array.unsafe_get st.w k)
          done;
          for q = 0 to noff - 1 do
            let j = Array.unsafe_get st.off q in
            s := !s -. (col_sign st j *. row.(stored_col st j) *. st.xval.(j))
          done;
          st.bval.(i) <- !s
        end;
        let s = st.bval.(i) in
        if not (Float.is_finite s) then ok := false;
        st.xval.(st.basis.(i)) <- s
      done;
      st.bval_at <- st.npivots
    end;
    !ok

  let reoptimize ?max_iters ?(should_stop = never_stop) ?stats t =
    let max_iters =
      match max_iters with
      | Some k -> k
      | None -> default_max_iters ~m:t.st.m ~n:t.st.n
    in
    let iters = ref 0 in
    let phase1_iters = ref 0 in
    let due = t.st.npivots - t.pivots_at_rebuild >= rebuild_period in
    if t.have_basis && due then t.period_rebuilds <- t.period_rebuilds + 1;
    let warm_usable = t.have_basis && not due in
    let outcome, warm, pivots0, refresh0 =
      if warm_usable && warm_start t then begin
        let st = t.st in
        let pivots0 = st.npivots and refresh0 = st.nrefresh in
        let r =
          match dual_optimize st t.cost ~max_iters ~iters ~should_stop with
          | `Opt -> extract_solution st t.base t.cost
          | `Infeasible vr ->
            (* Farkas witness: original rows entering row vr of B^-1,
               rescaled to original row units as in [duals_for] *)
            let witness = ref [] in
            for i = st.m - 1 downto 0 do
              let a = st.asign.(i) *. st.tab.(vr).(st.n + i) in
              if abs_float a > st.eps then witness := (i, a /. st.sigma.(i)) :: !witness
            done;
            Infeasible !witness
          | `Limit -> Iteration_limit (safe_dual_bound st t.cost)
        in
        (* dual pivots preserve dual feasibility, so the basis stays
           warm-startable even after infeasible or truncated calls *)
        r, true, pivots0, refresh0
      end
      else begin
        let p =
          { t.base with lower = Array.copy t.cur_lower; upper = Array.copy t.cur_upper }
        in
        let st = init_state ~eps:t.eps p in
        t.st <- st;
        t.pivots_at_rebuild <- 0;
        let r = two_phase st p ~max_iters ~iters ~phase1_iters ~should_stop in
        (match r with
        | Optimal _ | Infeasible _ -> t.have_basis <- true
        | Unbounded | Iteration_limit _ -> t.have_basis <- false);
        r, false, 0, 0
      end
    in
    if not warm then t.pivots_at_rebuild <- t.st.npivots;
    t.info <- { warm; iters = !iters };
    flush_stats stats t.st ~iters:!iters ~phase1_iters:!phase1_iters ~pivots0 ~refresh0;
    outcome
end
