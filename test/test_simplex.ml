let feps = 1e-5

let check_float msg expected got =
  if abs_float (expected -. got) > feps then
    Alcotest.failf "%s: expected %f, got %f" msg expected got

let expect_optimal = function
  | Simplex.Optimal s -> s
  | Simplex.Infeasible _ -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Simplex.Iteration_limit _ -> Alcotest.fail "unexpected iteration limit"

(* One-shot cold solve: the first reoptimize of a fresh state. *)
let cold p = Simplex.Incremental.reoptimize (Simplex.Incremental.create p)

let lp ?(lower = fun _ -> 0.) ?(upper = fun _ -> 1.) ncols objective rows =
  {
    Simplex.ncols;
    lower = Array.init ncols lower;
    upper = Array.init ncols upper;
    objective = Array.of_list objective;
    rows =
      List.map
        (fun (coeffs, rel, rhs) -> { Simplex.coeffs = Array.of_list coeffs; rel; rhs })
        rows
      |> Array.of_list;
  }

let simple_cover () =
  (* min x + y  s.t.  x + y >= 1  ->  1 at any vertex of the face *)
  let sol = expect_optimal (cold (lp 2 [ 1.; 1. ] [ [ 0, 1.; 1, 1. ], Simplex.Ge, 1. ])) in
  check_float "objective" 1. sol.value

let fractional_optimum () =
  (* min x + y  s.t.  2x + y >= 2, x + 2y >= 2  ->  x=y=2/3, z=4/3 *)
  let sol =
    expect_optimal
      (cold
         (lp 2 [ 1.; 1. ]
            [
              [ 0, 2.; 1, 1. ], Simplex.Ge, 2.;
              [ 0, 1.; 1, 2. ], Simplex.Ge, 2.;
            ]))
  in
  check_float "objective" (4. /. 3.) sol.value;
  check_float "x" (2. /. 3.) sol.x.(0);
  check_float "y" (2. /. 3.) sol.x.(1)

let upper_bounds_bind () =
  (* min -x (i.e. max x) with x <= 1 bound: x = 1 *)
  let sol = expect_optimal (cold (lp 1 [ -1. ] [])) in
  check_float "x at upper bound" 1. sol.x.(0);
  check_float "objective" (-1.) sol.value

let le_rows () =
  (* min -x - y s.t. x + y <= 1.5: optimum 1.5 split anywhere *)
  let sol =
    expect_optimal
      (cold (lp 2 [ -1.; -1. ] [ [ 0, 1.; 1, 1. ], Simplex.Le, 1.5 ]))
  in
  check_float "objective" (-1.5) sol.value

let eq_rows () =
  (* min x s.t. x + y = 1, y <= 0.25  ->  x = 0.75 *)
  let sol =
    expect_optimal
      (cold
         (lp 2
            ~upper:(fun j -> if j = 1 then 0.25 else 1.)
            [ 1.; 0. ]
            [ [ 0, 1.; 1, 1. ], Simplex.Eq, 1. ]))
  in
  check_float "x" 0.75 sol.x.(0)

let infeasible_detected () =
  (* x >= 1 and x <= 0.25 (as a row) *)
  match
    cold
      (lp 1 [ 0. ]
         [ [ (0, 1.) ], Simplex.Ge, 1.; [ (0, 1.) ], Simplex.Le, 0.25 ])
  with
  | Simplex.Infeasible witness -> Alcotest.(check bool) "witness nonempty" true (witness <> [])
  | Simplex.Optimal _ | Simplex.Unbounded | Simplex.Iteration_limit _ ->
    Alcotest.fail "expected infeasible"

let row_activity_reported () =
  let sol = expect_optimal (cold (lp 2 [ 1.; 2. ] [ [ 0, 1.; 1, 1. ], Simplex.Ge, 1. ])) in
  check_float "activity = 1 (tight)" 1. sol.row_activity.(0);
  check_float "cheapest var used" 1. sol.x.(0)

let degenerate_ok () =
  (* redundant rows on the same face *)
  let rows =
    [
      [ 0, 1.; 1, 1. ], Simplex.Ge, 1.;
      [ 0, 2.; 1, 2. ], Simplex.Ge, 2.;
      [ 0, 1. ], Simplex.Ge, 0.;
    ]
  in
  let sol = expect_optimal (cold (lp 2 [ 1.; 1. ] rows)) in
  check_float "objective" 1. sol.value

let empty_problem () =
  let sol = expect_optimal (cold (lp 2 [ 1.; 1. ] [])) in
  check_float "objective" 0. sol.value

(* qcheck: on random 0-1 covering LPs, the LP optimum never exceeds the
   integer optimum, and LP infeasibility implies IP infeasibility. *)
let qcheck_lp_bounds_ip =
  let gen =
    QCheck2.Gen.(
      let row = list_size (int_range 1 4) (pair (int_range 0 4) (int_range 1 4)) in
      pair (list_size (int_range 1 6) (pair row (int_range 1 6))) (list_size (int_range 5 5) (int_range 0 5)))
  in
  QCheck2.Test.make ~name:"LP relaxation bounds the 0-1 optimum" ~count:300 gen
    (fun (raw_rows, costs) ->
      let nvars = 5 in
      let rows =
        List.map
          (fun (terms, rhs) ->
            let coeffs = Array.of_list (List.map (fun (v, a) -> v, float_of_int a) terms) in
            { Simplex.coeffs; rel = Simplex.Ge; rhs = float_of_int rhs })
          raw_rows
      in
      let objective = Array.of_list (List.map float_of_int costs) in
      let problem =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective;
          rows = Array.of_list rows;
        }
      in
      (* integer optimum by enumeration *)
      let ip_best = ref None in
      for mask = 0 to (1 lsl nvars) - 1 do
        let x v = (mask lsr v) land 1 in
        let feasible =
          List.for_all
            (fun (terms, rhs) ->
              List.fold_left (fun acc (v, a) -> acc + (a * x v)) 0 terms >= rhs)
            raw_rows
        in
        if feasible then begin
          let cost = List.fold_left ( + ) 0 (List.mapi (fun v c -> c * x v) costs) in
          match !ip_best with
          | Some b when b <= cost -> ()
          | Some _ | None -> ip_best := Some cost
        end
      done;
      match cold problem, !ip_best with
      | Simplex.Optimal sol, Some ip -> sol.value <= float_of_int ip +. feps
      | Simplex.Optimal _, None -> true  (* LP feasible, IP not: fine *)
      | Simplex.Infeasible _, None -> true
      | Simplex.Infeasible _, Some _ -> false  (* LP infeasible but IP feasible: bug *)
      | (Simplex.Unbounded | Simplex.Iteration_limit _), _ -> false)

(* qcheck: the reported primal solution is feasible and matches the
   reported objective value. *)
let qcheck_solution_consistent =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (pair (list_size (int_range 1 4) (pair (int_range 0 4) (int_range 1 4))) (int_range 1 6)))
  in
  QCheck2.Test.make ~name:"simplex solution is primal feasible" ~count:300 gen (fun raw_rows ->
      let nvars = 5 in
      let rows =
        List.map
          (fun (terms, rhs) ->
            let coeffs = Array.of_list (List.map (fun (v, a) -> v, float_of_int a) terms) in
            { Simplex.coeffs; rel = Simplex.Ge; rhs = float_of_int rhs })
          raw_rows
      in
      let objective = Array.init nvars (fun v -> float_of_int (v + 1)) in
      let problem =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective;
          rows = Array.of_list rows;
        }
      in
      let feasible_at_ones =
        List.for_all
          (fun (terms, rhs) -> List.fold_left (fun acc (_, a) -> acc + a) 0 terms >= rhs)
          raw_rows
      in
      match cold problem with
      | Simplex.Optimal sol ->
        let bounds_ok = Array.for_all (fun v -> v >= -.feps && v <= 1. +. feps) sol.x in
        let rows_ok =
          List.for_all2
            (fun { Simplex.coeffs; rhs; _ } activity ->
              let recomputed =
                Array.fold_left (fun acc (v, a) -> acc +. (a *. sol.x.(v))) 0. coeffs
              in
              abs_float (recomputed -. activity) < feps && activity >= rhs -. feps)
            rows
            (Array.to_list sol.row_activity)
        in
        let value_ok =
          let z = ref 0. in
          Array.iteri (fun v c -> z := !z +. (c *. sol.x.(v))) objective;
          abs_float (!z -. sol.value) < feps
        in
        bounds_ok && rows_ok && value_ok
      | Simplex.Infeasible _ ->
        (* positive Ge rows are feasible iff satisfiable at x = 1 *)
        not feasible_at_ones
      | Simplex.Unbounded | Simplex.Iteration_limit _ -> false)

(* --- incremental warm re-solving ------------------------------------------ *)

let incremental_basics () =
  (* min x + y s.t. x + y >= 1 *)
  let p = lp 2 [ 1.; 1. ] [ [ 0, 1.; 1, 1. ], Simplex.Ge, 1. ] in
  let sx = Simplex.Incremental.create p in
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s -> check_float "cold optimum" 1. s.value
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "first call is cold" false (Simplex.Incremental.last_info sx).warm;
  Simplex.Incremental.fix sx 0 0.;
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s -> check_float "after fix x0=0" 1. s.value
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "second call is warm" true (Simplex.Incremental.last_info sx).warm;
  Simplex.Incremental.fix sx 1 0.;
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Infeasible w -> Alcotest.(check bool) "witness nonempty" true (w <> [])
  | _ -> Alcotest.fail "expected infeasible");
  Alcotest.(check bool) "infeasible detected warm" true (Simplex.Incremental.last_info sx).warm;
  Simplex.Incremental.unfix sx 0;
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s -> check_float "recovered after unfix" 1. s.value
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "still warm after infeasible" true (Simplex.Incremental.last_info sx).warm;
  Simplex.Incremental.invalidate sx;
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s -> check_float "same optimum after invalidate" 1. s.value
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "invalidate forces a cold solve" false (Simplex.Incremental.last_info sx).warm

(* qcheck: random 0/1 LPs with random fix/unfix scripts must give the same
   outcome from the incremental solver and from cold solves under the same
   bounds, including agreeing on infeasibility (with a nonempty witness). *)
let qcheck_warm_equals_cold =
  let gen =
    QCheck2.Gen.(
      let row = list_size (int_range 1 4) (pair (int_range 0 4) (int_range 1 4)) in
      triple
        (list_size (int_range 1 6) (pair row (int_range 1 6)))
        (list_size (int_range 5 5) (int_range 0 5))
        (list_size (int_range 1 12) (pair (int_range 0 4) (int_range 0 2))))
  in
  QCheck2.Test.make ~name:"incremental warm re-solves match cold solves" ~count:200 gen
    (fun (raw_rows, costs, script) ->
      let nvars = 5 in
      let rows =
        List.map
          (fun (terms, rhs) ->
            let coeffs = Array.of_list (List.map (fun (v, a) -> v, float_of_int a) terms) in
            { Simplex.coeffs; rel = Simplex.Ge; rhs = float_of_int rhs })
          raw_rows
      in
      let problem =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective = Array.of_list (List.map float_of_int costs);
          rows = Array.of_list rows;
        }
      in
      let sx = Simplex.Incremental.create problem in
      let lower = Array.make nvars 0. in
      let upper = Array.make nvars 1. in
      let agree () =
        let reference = cold { problem with lower = Array.copy lower; upper = Array.copy upper } in
        match Simplex.Incremental.reoptimize sx, reference with
        | Simplex.Optimal a, Simplex.Optimal b -> abs_float (a.value -. b.value) <= feps
        | Simplex.Infeasible w, Simplex.Infeasible _ -> w <> []
        | _, _ -> false
      in
      let ok = ref (agree ()) in
      List.iter
        (fun (v, action) ->
          if !ok then begin
            (match action with
            | 0 ->
              Simplex.Incremental.fix sx v 0.;
              lower.(v) <- 0.;
              upper.(v) <- 0.
            | 1 ->
              Simplex.Incremental.fix sx v 1.;
              lower.(v) <- 1.;
              upper.(v) <- 1.
            | _ ->
              Simplex.Incremental.unfix sx v;
              lower.(v) <- 0.;
              upper.(v) <- 1.);
            ok := agree ()
          end)
        script;
      !ok)

(* --- live cut rows (add_row / drop_row) ------------------------------------ *)

let add_row_warm_repair () =
  (* min x + y s.t. x + y >= 1: optimum 1 fractional-friendly; then cut
     2x + 2y >= 3 pushes it to 1.5, and dropping the cut restores 1. *)
  let p = lp 2 [ 1.; 1. ] [ [ 0, 1.; 1, 1. ], Simplex.Ge, 1. ] in
  let sx = Simplex.Incremental.create p in
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s -> check_float "base optimum" 1. s.value
  | _ -> Alcotest.fail "expected optimal");
  let r =
    Simplex.Incremental.add_row sx
      { Simplex.coeffs = [| 0, 2.; 1, 2. |]; rel = Simplex.Ge; rhs = 3. }
  in
  Alcotest.(check int) "cut row index" 1 r;
  Alcotest.(check int) "row count grew" 2 (Simplex.Incremental.nrows sx);
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s ->
    check_float "cut binds" 1.5 s.value;
    Alcotest.(check bool) "cut repair is warm" true (Simplex.Incremental.last_info sx).warm;
    check_float "cut row activity" 3. s.row_activity.(r)
  | _ -> Alcotest.fail "expected optimal with cut");
  Simplex.Incremental.drop_row sx r;
  Alcotest.(check int) "row count shrank" 1 (Simplex.Incremental.nrows sx);
  match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s -> check_float "optimum restored" 1. s.value
  | _ -> Alcotest.fail "expected optimal after drop"

(* qcheck: adding random Ge cut rows then dropping them returns exactly to
   the base optimum, and every intermediate warm solve matches a cold
   solve of the same (edited) problem. *)
let qcheck_cut_rows_warm_equals_cold =
  let gen =
    QCheck2.Gen.(
      let row = pair (list_size (int_range 1 4) (pair (int_range 0 4) (int_range 1 4))) (int_range 1 6) in
      pair (list_size (int_range 1 4) row) (list_size (int_range 1 4) row))
  in
  QCheck2.Test.make ~name:"cut rows: warm add/drop matches cold solves" ~count:200 gen
    (fun (base_rows, cut_rows) ->
      let nvars = 5 in
      let mk (terms, rhs) =
        {
          Simplex.coeffs = Array.of_list (List.map (fun (v, a) -> v, float_of_int a) terms);
          rel = Simplex.Ge;
          rhs = float_of_int rhs;
        }
      in
      let problem =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective = Array.init nvars (fun v -> float_of_int (v + 1));
          rows = Array.of_list (List.map mk base_rows);
        }
      in
      let sx = Simplex.Incremental.create problem in
      let live = ref (List.map mk base_rows) in
      let agree () =
        let reference = cold { problem with rows = Array.of_list !live } in
        match Simplex.Incremental.reoptimize sx, reference with
        | Simplex.Optimal a, Simplex.Optimal b -> abs_float (a.value -. b.value) <= feps
        | Simplex.Infeasible w, Simplex.Infeasible _ -> w <> []
        | _, _ -> false
      in
      let ok = ref (agree ()) in
      let added =
        List.map
          (fun raw ->
            let r = mk raw in
            let idx = Simplex.Incremental.add_row sx r in
            live := !live @ [ r ];
            if !ok then ok := agree ();
            idx)
          cut_rows
      in
      (* drop in reverse so stored indices stay valid *)
      List.iter
        (fun idx ->
          Simplex.Incremental.drop_row sx idx;
          live := List.filteri (fun i _ -> i <> idx) !live;
          if !ok then ok := agree ())
        (List.rev added);
      !ok && Simplex.Incremental.nrows sx = List.length base_rows)

let eq_row_drops_warm () =
  (* min x + 3y s.t. x + y = 1 (Eq), x + 2y >= 1.5: y = 0.5 at the
     optimum 2; without the Eq row, x = 1 and y = 0.25 give 1.75 *)
  let p =
    lp 2 [ 1.; 3. ]
      [ [ 0, 1.; 1, 1. ], Simplex.Eq, 1.; [ 0, 1.; 1, 2. ], Simplex.Ge, 1.5 ]
  in
  let sx = Simplex.Incremental.create p in
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s -> check_float "with the Eq row" 2. s.value
  | _ -> Alcotest.fail "expected optimal");
  Simplex.Incremental.drop_row sx 0;
  let reference = expect_optimal (cold { p with rows = [| p.rows.(1) |] }) in
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Optimal s -> check_float "matches a cold solve" reference.value s.value
  | _ -> Alcotest.fail "expected optimal after dropping the Eq row");
  check_float "cold optimum" 1.75 reference.value;
  Alcotest.(check bool) "Eq row dropped warm" true (Simplex.Incremental.last_info sx).warm

(* The tableau engine this library used before the factored basis, kept
   whole as an oracle: a dense row of B^-1 A per basic position over the
   structural and slack columns, artificial columns derived from the
   slack ones, and stamped caches of the basic values, reduced costs and
   duals that warm re-solves recompute only where a pivot wrote.  The
   bit-identity checks below ([Dense_ref], [Incremental_ref]) hold on
   this code, which they were written for. *)
module Tableau_ref = struct
  open Simplex

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

  include Incremental
end

(* The textbook dense two-phase primal that a [Tableau_ref] cold solve must reproduce
   pivot for pivot: every row stores all n + 2m columns, the artificial
   block and an all-zero slack column for Eq rows included, and every
   pivot updates every column.  Same pricing (Dantzig, Bland after half
   the iteration budget), ratio tests and eps as the engine, so
   iteration and pivot counts, vertices, duals and witnesses must agree
   exactly. *)
module Dense_ref = struct
  let eps = 1e-7

  type result = {
    outcome : Simplex.outcome;
    iterations : int;
    phase1_iters : int;
    pivots : int;
  }

  let solve (p : Simplex.problem) =
    let m = Array.length p.rows and n = p.ncols in
    let nt = n + (2 * m) in
    let lb = Array.make nt 0. and ub = Array.make nt infinity in
    Array.blit p.lower 0 lb 0 n;
    Array.blit p.upper 0 ub 0 n;
    let tab = Array.make_matrix m nt 0. in
    let x = Array.make nt 0. in
    for j = 0 to n - 1 do
      x.(j) <- (if lb.(j) > neg_infinity then lb.(j) else ub.(j))
    done;
    let sigma = Array.make m 1. in
    let basis = Array.init m (fun i -> n + m + i) in
    let inb = Array.make nt false in
    Array.iteri
      (fun i (r : Simplex.row) ->
        Array.iter (fun (j, a) -> tab.(i).(j) <- tab.(i).(j) +. a) r.coeffs;
        match r.rel with
        | Simplex.Ge -> tab.(i).(n + i) <- -1.
        | Simplex.Le -> tab.(i).(n + i) <- 1.
        | Simplex.Eq -> ub.(n + i) <- 0.)
      p.rows;
    for i = 0 to m - 1 do
      let residual = ref p.rows.(i).rhs in
      Array.iter (fun (j, a) -> residual := !residual -. (a *. x.(j))) p.rows.(i).coeffs;
      sigma.(i) <- (if !residual >= 0. then 1. else -1.);
      tab.(i).(n + m + i) <- sigma.(i);
      inb.(n + m + i) <- true;
      x.(n + m + i) <- abs_float !residual;
      if sigma.(i) < 0. then Array.iteri (fun c v -> tab.(i).(c) <- -.v) tab.(i)
    done;
    let rc = Array.make nt 0. in
    let since = ref 0 and pivots = ref 0 and iters = ref 0 in
    let refresh cost =
      Array.blit cost 0 rc 0 nt;
      for i = 0 to m - 1 do
        let cb = cost.(basis.(i)) in
        if cb <> 0. then Array.iteri (fun j a -> rc.(j) <- rc.(j) -. (cb *. a)) tab.(i)
      done;
      since := 0
    in
    let pivot r j =
      let piv = tab.(r).(j) in
      let row_r = tab.(r) in
      Array.iteri (fun c v -> row_r.(c) <- v /. piv) row_r;
      for i = 0 to m - 1 do
        let f = tab.(i).(j) in
        if i <> r && f <> 0. then
          Array.iteri (fun c v -> tab.(i).(c) <- tab.(i).(c) -. (f *. v)) row_r
      done;
      let rcj = rc.(j) in
      if rcj <> 0. then Array.iteri (fun c v -> rc.(c) <- rc.(c) -. (rcj *. v)) row_r;
      inb.(basis.(r)) <- false;
      basis.(r) <- j;
      inb.(j) <- true;
      incr since;
      incr pivots
    in
    let entering ~bland =
      let best = ref (-1) and best_score = ref eps in
      (try
         for j = 0 to nt - 1 do
           if (not inb.(j)) && lb.(j) < ub.(j) then begin
             let r = rc.(j) in
             let at_lower = x.(j) <= lb.(j) +. eps in
             let score =
               if at_lower && r < -.eps then -.r else if (not at_lower) && r > eps then r else 0.
             in
             if score > !best_score then begin
               best := j;
               best_score := score;
               if bland then raise Exit
             end
           end
         done
       with Exit -> ());
      !best
    in
    (* one primal step: `Moved, `Opt or `Unbd *)
    let step cost ~bland =
      if !since > 100 then refresh cost;
      let j = entering ~bland in
      if j < 0 then `Opt
      else begin
        let at_lower = x.(j) <= lb.(j) +. eps in
        let dir = if at_lower then 1. else -1. in
        let delta = ref (ub.(j) -. lb.(j)) and blocking = ref (-1) and to_upper = ref false in
        let consider i room up =
          if room < !delta -. eps || (room < !delta +. eps && !blocking < 0) then begin
            delta := max room 0.;
            blocking := i;
            to_upper := up
          end
        in
        for i = 0 to m - 1 do
          let rate = -.dir *. tab.(i).(j) and k = basis.(i) in
          if rate > eps && ub.(k) < infinity then consider i ((ub.(k) -. x.(k)) /. rate) true
          else if rate < -.eps && lb.(k) > neg_infinity then
            consider i ((x.(k) -. lb.(k)) /. -.rate) false
        done;
        if !delta = infinity then `Unbd
        else begin
          let d = !delta in
          for i = 0 to m - 1 do
            x.(basis.(i)) <- x.(basis.(i)) -. (dir *. tab.(i).(j) *. d)
          done;
          x.(j) <- x.(j) +. (dir *. d);
          (match !blocking with
          | -1 -> x.(j) <- (if at_lower then ub.(j) else lb.(j))
          | r ->
            let leaving = basis.(r) in
            x.(leaving) <- (if !to_upper then ub.(leaving) else lb.(leaving));
            pivot r j);
          `Moved
        end
      end
    in
    let max_iters = 200 + (20 * (m + n)) in
    let optimize cost =
      refresh cost;
      let bland_after = max 100 (max_iters / 2) in
      let rec go () =
        if !iters >= max_iters then `Limit
        else begin
          incr iters;
          match step cost ~bland:(!iters > bland_after) with
          | `Moved -> go ()
          | (`Opt | `Unbd) as r -> r
        end
      in
      go ()
    in
    let duals cost =
      Array.init m (fun i ->
          let s = ref 0. in
          for k = 0 to m - 1 do
            let cb = cost.(basis.(k)) in
            if cb <> 0. then s := !s +. (cb *. tab.(k).(n + m + i))
          done;
          !s /. sigma.(i))
    in
    let phase1 = Array.init nt (fun j -> if j >= n + m then 1. else 0.) in
    let r1 = optimize phase1 in
    let phase1_iters = !iters in
    let outcome =
      match r1 with
      | `Limit | `Unbd -> Simplex.Iteration_limit None
      | `Opt ->
        let z1 = ref 0. in
        Array.iteri (fun j c -> if c <> 0. then z1 := !z1 +. (c *. x.(j))) phase1;
        if !z1 > 1e-6 *. float_of_int (max 1 m) then begin
          let pi = duals phase1 in
          Simplex.Infeasible
            (List.filter
               (fun (_, v) -> abs_float v > eps)
               (List.mapi (fun i v -> i, v) (Array.to_list pi)))
        end
        else begin
          for i = n + m to nt - 1 do
            ub.(i) <- 0.;
            x.(i) <- min x.(i) 0.
          done;
          let cost = Array.init nt (fun j -> if j < n then p.objective.(j) else 0.) in
          match optimize cost with
          | `Limit -> Simplex.Iteration_limit None
          | `Unbd -> Simplex.Unbounded
          | `Opt ->
            let xs = Array.init n (fun j -> Float.min ub.(j) (Float.max lb.(j) x.(j))) in
            let value = ref 0. in
            Array.iteri (fun j c -> if c <> 0. then value := !value +. (c *. xs.(j))) p.objective;
            let row_activity =
              Array.map
                (fun (r : Simplex.row) ->
                  Array.fold_left (fun acc (j, a) -> acc +. (a *. xs.(j))) 0. r.coeffs)
                p.rows
            in
            Simplex.Optimal { value = !value; x = xs; row_activity; duals = duals cost }
        end
    in
    { outcome; iterations = !iters; phase1_iters; pivots = !pivots }

  (* Exact agreement ([=] on floats, so only the sign of a zero may
     differ) of a [Tableau_ref] cold solve with the reference. *)
  let agrees (p : Simplex.problem) =
    let stats = Simplex.stats () in
    let got = Tableau_ref.reoptimize ~stats (Tableau_ref.create p) in
    let want = solve p in
    let same_floats a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b in
    stats.iterations = want.iterations
    && stats.phase1_iters = want.phase1_iters
    && stats.pivots = want.pivots
    &&
    match got, want.outcome with
    | Simplex.Optimal a, Simplex.Optimal b ->
      a.value = b.value && same_floats a.x b.x && same_floats a.duals b.duals
      && same_floats a.row_activity b.row_activity
    | Simplex.Infeasible a, Simplex.Infeasible b -> a = b
    | Simplex.Unbounded, Simplex.Unbounded -> true
    | Simplex.Iteration_limit _, Simplex.Iteration_limit _ -> true
    | _, _ -> false
end

(* The warm path before cached basic values, reduced costs and duals:
   every warm re-solve refreshes the whole reduced-cost row, recomputes
   every basic value from B^-1 b and every dual in full.  This is the
   tableau engine's code at that point with its comments stripped, kept
   as the oracle the cached [Tableau_ref] must match bit for bit (up to
   the sign of a zero) on any script of edits. *)
module Incremental_ref = struct
  open Simplex

  type state = {
    m : int; n : int; ntotal : int; tab : float array array; lb : float array;
    ub : float array; xval : float array; basis : int array; in_basis : bool array;
    sigma : float array; asign : float array; rc : float array; rhs : float array;
    nz : int array; mutable pivots_since_refresh : int; mutable npivots : int;
    mutable nrefresh : int; eps : float;
  }

  type step =
    | Moved
    | Opt
    | Unbd

  let art_col st i = st.n + st.m + i

  let stored_col st j = if j < st.n + st.m then j else j - st.m
  let col_sign st j = if j < st.n + st.m then 1. else st.asign.(j - st.n - st.m)

  let refresh_reduced_costs st cost =
    let ns = st.n + st.m in
    for j = 0 to st.ntotal - 1 do
      st.rc.(j) <- cost.(j)
    done;
    for i = 0 to st.m - 1 do
      let cb = cost.(st.basis.(i)) in
      if cb <> 0. then begin
        let row = st.tab.(i) in
        for j = 0 to ns - 1 do
          st.rc.(j) <- st.rc.(j) -. (cb *. row.(j))
        done;
        for k = 0 to st.m - 1 do
          st.rc.(ns + k) <- st.rc.(ns + k) -. (cb *. (st.asign.(k) *. row.(st.n + k)))
        done
      end
    done;
    st.pivots_since_refresh <- 0;
    st.nrefresh <- st.nrefresh + 1

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

  let pivot_tableau st r j =
    let ns = st.n + st.m in
    let js = stored_col st j and jsg = col_sign st j in
    let row_r = st.tab.(r) in
    let piv = jsg *. row_r.(js) in
    let nz = st.nz in
    let cnt = ref 0 in
    for c = 0 to ns - 1 do
      let x = row_r.(c) in
      if x <> 0. then begin
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
        if f <> 0. then
          for t = 0 to cnt - 1 do
            let c = Array.unsafe_get nz t in
            Array.unsafe_set row_i c (Array.unsafe_get row_i c -. (f *. Array.unsafe_get row_r c))
          done
      end
    done;
    let rcj = st.rc.(j) in
    if rcj <> 0. then
      for t = 0 to cnt - 1 do
        let c = nz.(t) in
        st.rc.(c) <- st.rc.(c) -. (rcj *. row_r.(c));
        if c >= st.n then begin

          let k = c - st.n in
          st.rc.(ns + k) <- st.rc.(ns + k) -. (rcj *. (st.asign.(k) *. row_r.(c)))
        end
      done;
    let leaving = st.basis.(r) in
    st.basis.(r) <- j;
    st.in_basis.(j) <- true;
    st.in_basis.(leaving) <- false;
    st.pivots_since_refresh <- st.pivots_since_refresh + 1;
    st.npivots <- st.npivots + 1

  let step st cost ~bland =
    if st.pivots_since_refresh > 100 then refresh_reduced_costs st cost;
    let j = choose_entering st ~bland in
    if j < 0 then Opt
    else begin
      let at_lower = st.xval.(j) <= st.lb.(j) +. st.eps in
      let dir = if at_lower then 1. else -1. in
      let js = stored_col st j and jsg = col_sign st j in

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

        for i = 0 to st.m - 1 do
          let k = st.basis.(i) in
          st.xval.(k) <- st.xval.(k) -. (dir *. (jsg *. st.tab.(i).(js)) *. d)
        done;
        st.xval.(j) <- st.xval.(j) +. (dir *. d);
        (match !blocking with
        | -1 ->

          st.xval.(j) <- (if at_lower then st.ub.(j) else st.lb.(j))
        | r ->
          let leaving = st.basis.(r) in
          st.xval.(leaving) <- (if !blocking_to_upper then st.ub.(leaving) else st.lb.(leaving));
          pivot_tableau st r j);
        Moved
      end
    end

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

  let duals_for st cost =
    let s = Array.make st.m 0. in
    for k = 0 to st.m - 1 do
      let cb = cost.(st.basis.(k)) in
      if cb <> 0. then begin
        let row = st.tab.(k) in
        for i = 0 to st.m - 1 do
          s.(i) <- s.(i) +. (cb *. (st.asign.(i) *. row.(st.n + i)))
        done
      end
    done;
    Array.mapi (fun i v -> v /. st.sigma.(i)) s

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

          tab.(i).(n + i) <- 1.;
          ub.(n + i) <- 0.)
      p.rows;
    let st =
      {
        m; n; ntotal; tab; lb; ub; xval; basis; in_basis; sigma; asign;
        rc = Array.make ntotal 0.; rhs; nz = Array.make (n + m) 0; pivots_since_refresh = 0;
        npivots = 0; nrefresh = 0; eps;
      }
    in

    for i = 0 to m - 1 do
      let residual = ref p.rows.(i).rhs in
      Array.iter (fun (j, a) -> residual := !residual -. (a *. xval.(j))) p.rows.(i).coeffs;

      sigma.(i) <- (if !residual >= 0. then 1. else -1.);

      asign.(i) <- tab.(i).(n + i) *. sigma.(i);
      basis.(i) <- art_col st i;
      in_basis.(art_col st i) <- true;
      xval.(art_col st i) <- abs_float !residual;

      if sigma.(i) < 0. then begin
        let row = tab.(i) in
        for c = 0 to n + m - 1 do
          row.(c) <- -.row.(c)
        done
      end
    done;
    st

  let phase2_cost_of st (p : problem) =
    let cost = Array.make st.ntotal 0. in
    Array.blit p.objective 0 cost 0 st.n;
    cost

  let extract_solution st (p : problem) cost =
    let x = Array.sub st.xval 0 st.n in
    for j = 0 to st.n - 1 do
      if x.(j) < st.lb.(j) then x.(j) <- st.lb.(j);
      if x.(j) > st.ub.(j) then x.(j) <- st.ub.(j)
    done;
    let activity =
      Array.map
        (fun r -> Array.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. r.coeffs)
        p.rows
    in
    let value = ref 0. in
    Array.iteri (fun j c -> if c <> 0. then value := !value +. (c *. x.(j))) p.objective;
    Optimal { value = !value; x; row_activity = activity; duals = duals_for st cost }

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

        for i = 0 to st.m - 1 do
          st.ub.(art_col st i) <- 0.;
          st.xval.(art_col st i) <- min st.xval.(art_col st i) 0.
        done;
        let cost = phase2_cost_of st p in
        match optimize st cost ~max_iters ~iters ~should_stop with
        | Iteration_limit _ -> Iteration_limit (safe_dual_bound st cost)
        | Unbounded -> Unbounded
        | Infeasible _ ->

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

  type dual_step =
    | DMoved
    | DOpt
    | DInfeasible of int

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

  type info = {
    warm : bool; iters : int;
  }

  type t = {
    mutable base : problem; cur_lower : float array; cur_upper : float array; eps : float;
    mutable st : state; mutable cost : float array; mutable have_basis : bool;
    mutable info : info; mutable pivots_at_rebuild : int;
  }

  let rebuild_period = 2000

  let create ?(eps = 1e-7) (p : problem) =
    let base = { p with lower = Array.copy p.lower; upper = Array.copy p.upper } in
    let st = init_state ~eps base in
    {
      base; cur_lower = Array.copy base.lower; cur_upper = Array.copy base.upper; eps; st;
      cost = phase2_cost_of st base; have_basis = false;
      info = { warm = false; iters = 0 };
      pivots_at_rebuild = 0;
    }

  let nrows t = Array.length t.base.rows
  let last_info t = t.info
  let invalidate t = t.have_basis <- false

  let resync_cold t =
    t.have_basis <- false;
    let st = init_state ~eps:t.eps t.base in
    t.st <- st;
    t.cost <- phase2_cost_of st t.base;
    t.pivots_at_rebuild <- 0

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

      let asign = Array.append st.asign [| 1. |] in
      let rhs = Array.append st.rhs [| r.rhs |] in
      let d = tab.(m) in
      Array.iter (fun (j, a) -> d.(j) <- d.(j) +. a) r.coeffs;
      d.(slack_new) <- c_s;

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

      if c_s < 0. then
        for c = 0 to ns' - 1 do
          d.(c) <- -.d.(c)
        done;
      in_basis.(slack_new) <- true;
      let st' =
        {
          m = m'; n; ntotal = ntotal'; tab; lb; ub; xval; basis; in_basis; sigma; asign;
          rc = Array.make ntotal' 0.; rhs; nz = Array.make ns' 0;
          pivots_since_refresh = st.pivots_since_refresh; npivots = st.npivots;
          nrefresh = st.nrefresh; eps = st.eps;
        }
      in
      t.st <- st';
      t.cost <- phase2_cost_of st' t.base
    end;
    idx

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

          pivot_tableau st i slack_i;
          true
        end
        else false
      in
      if (not ok) || st.in_basis.(art_i) then resync_cold t
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
          {
            m = m'; n; ntotal = ntotal'; tab; lb; ub; xval;
            basis = Array.init m' (fun k' -> map st.basis.(keep k')); in_basis;
            sigma = Array.init m' (fun k' -> st.sigma.(keep k'));
            asign = Array.init m' (fun k' -> st.asign.(keep k'));
            rhs = Array.init m' (fun k' -> st.rhs.(keep k')); rc = Array.make ntotal' 0.;
            nz = Array.make ns' 0; pivots_since_refresh = st.pivots_since_refresh;
            npivots = st.npivots; nrefresh = st.nrefresh; eps = st.eps;
          }
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

      let off = ref [] in
      for j = st.ntotal - 1 downto 0 do
        if (not st.in_basis.(j)) && st.xval.(j) <> 0. then
          off := (stored_col st j, col_sign st j, st.xval.(j)) :: !off
      done;
      let off = Array.of_list !off in

      let w = Array.init st.m (fun k -> st.asign.(k) *. st.sigma.(k) *. st.rhs.(k)) in
      let n = st.n in
      for i = 0 to st.m - 1 do
        let row = st.tab.(i) in
        let s = ref 0. in
        for k = 0 to st.m - 1 do
          let a = Array.unsafe_get row (n + k) in
          if a <> 0. then s := !s +. (a *. Array.unsafe_get w k)
        done;
        Array.iter (fun (js, sg, x) -> s := !s -. (sg *. row.(js) *. x)) off;
        if not (Float.is_finite !s) then ok := false;
        st.xval.(st.basis.(i)) <- !s
      done
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
    let warm_usable =
      t.have_basis && t.st.npivots - t.pivots_at_rebuild < rebuild_period
    in
    let outcome, warm, pivots0, refresh0 =
      if warm_usable && warm_start t then begin
        let st = t.st in
        let pivots0 = st.npivots and refresh0 = st.nrefresh in
        let r =
          match dual_optimize st t.cost ~max_iters ~iters ~should_stop with
          | `Opt -> extract_solution st t.base t.cost
          | `Infeasible vr ->

            let witness = ref [] in
            for i = st.m - 1 downto 0 do
              let a = st.asign.(i) *. st.tab.(vr).(st.n + i) in
              if abs_float a > st.eps then witness := (i, a /. st.sigma.(i)) :: !witness
            done;
            Infeasible !witness
          | `Limit -> Iteration_limit (safe_dual_bound st t.cost)
        in

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

(* Lagrangian value of row multipliers [y] over the box [lower, upper]:
   y.b + sum_j min over the box of (c_j - (yA)_j) x_j.  [None] when a
   multiplier has the wrong sign for its row, so the value is no bound. *)
let lagrangian (p : Simplex.problem) lower upper y =
  let signs_ok =
    Array.for_all2
      (fun (r : Simplex.row) yi ->
        match r.rel with
        | Simplex.Ge -> yi >= -1e-6
        | Simplex.Le -> yi <= 1e-6
        | Simplex.Eq -> true)
      p.rows y
  in
  if not signs_ok then None
  else begin
    let rc = Array.copy p.objective in
    let z = ref 0. in
    Array.iteri
      (fun i (r : Simplex.row) ->
        z := !z +. (y.(i) *. r.rhs);
        Array.iter (fun (j, a) -> rc.(j) <- rc.(j) -. (y.(i) *. a)) r.coeffs)
      p.rows;
    Array.iteri (fun j r -> z := !z +. min (r *. lower.(j)) (r *. upper.(j))) rc;
    Some !z
  end

(* An infeasibility witness certifies when, in one orientation, its
   multipliers have the right sign for every relation and the combined
   row sum_i mu_i a_i x >= sum_i mu_i b_i cannot be met over the box. *)
let witness_certifies (p : Simplex.problem) lower upper witness =
  let certifies orient =
    let lhs = Array.make p.ncols 0. and rhs = ref 0. and signs_ok = ref true in
    List.iter
      (fun (i, w) ->
        let mu = orient *. w in
        let r = p.rows.(i) in
        (match r.rel with
        | Simplex.Ge -> if mu < -1e-9 then signs_ok := false
        | Simplex.Le -> if mu > 1e-9 then signs_ok := false
        | Simplex.Eq -> ());
        rhs := !rhs +. (mu *. r.rhs);
        Array.iter (fun (j, a) -> lhs.(j) <- lhs.(j) +. (mu *. a)) r.coeffs)
      witness;
    let best = ref 0. in
    Array.iteri (fun j a -> best := !best +. max (a *. lower.(j)) (a *. upper.(j))) lhs;
    !signs_ok && !best < !rhs -. 1e-7
  in
  witness <> [] && (certifies 1. || certifies (-1.))

(* qcheck: Ge/Le/Eq rows with signed coefficients and right-hand sides
   (so phase 1 starts with negated rows, and artificials can re-enter)
   under scripts mixing fix/unfix/add_row/drop_row at any index.  Every
   incremental outcome must match a cold solve of the edited problem,
   and a [Tableau_ref] cold solve of it must match [Dense_ref] exactly;
   an Optimal solve's duals must certify its value through the
   Lagrangian bound, and an Infeasible witness must certify
   infeasibility. *)
let qcheck_mixed_rows_certified =
  let nvars = 5 in
  let gen =
    QCheck2.Gen.(
      let coeff = map (fun a -> if a >= 0 then a + 1 else a) (int_range (-4) 3) in
      let rel = oneofl [ Simplex.Ge; Simplex.Le; Simplex.Eq ] in
      let row =
        triple
          (list_size (int_range 1 4) (pair (int_range 0 (nvars - 1)) coeff))
          rel (int_range (-4) 6)
      in
      let op =
        oneof
          [
            map2 (fun v b -> `Fix (v, b)) (int_range 0 (nvars - 1)) bool;
            map (fun v -> `Unfix v) (int_range 0 (nvars - 1));
            map (fun r -> `Add r) row;
            map (fun i -> `Drop i) (int_range 0 7);
          ]
      in
      triple (list_size (int_range 1 5) row)
        (list_size (return nvars) (int_range (-5) 5))
        (list_size (int_range 1 12) op))
  in
  QCheck2.Test.make ~name:"mixed-relation rows: warm solves match cold and certify" ~count:500 gen
    (fun (base_rows, costs, script) ->
      let mk (terms, rel, rhs) =
        {
          Simplex.coeffs = Array.of_list (List.map (fun (v, a) -> v, float_of_int a) terms);
          rel;
          rhs = float_of_int rhs;
        }
      in
      let base =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective = Array.of_list (List.map float_of_int costs);
          rows = Array.of_list (List.map mk base_rows);
        }
      in
      let sx = Simplex.Incremental.create base in
      let lower = Array.make nvars 0. and upper = Array.make nvars 1. in
      let live = ref base.rows in
      let agree () =
        let p = { base with rows = !live; lower = Array.copy lower; upper = Array.copy upper } in
        Dense_ref.agrees p
        &&
        match Simplex.Incremental.reoptimize sx, cold p with
        | Simplex.Optimal a, Simplex.Optimal b ->
          let certified y =
            match lagrangian p lower upper y with
            | Some z -> abs_float (z -. a.value) <= 1e-6
            | None -> false
          in
          abs_float (a.value -. b.value) <= feps
          && (certified a.duals || certified (Array.map Float.neg a.duals))
        | Simplex.Infeasible w, Simplex.Infeasible _ -> witness_certifies p lower upper w
        | _, _ -> false
      in
      let ok = ref (agree ()) in
      List.iter
        (fun op ->
          if !ok then begin
            (match op with
            | `Fix (v, b) ->
              let x = if b then 1. else 0. in
              Simplex.Incremental.fix sx v x;
              lower.(v) <- x;
              upper.(v) <- x
            | `Unfix v ->
              Simplex.Incremental.unfix sx v;
              lower.(v) <- 0.;
              upper.(v) <- 1.
            | `Add raw ->
              let r = mk raw in
              ignore (Simplex.Incremental.add_row sx r);
              live := Array.append !live [| r |]
            | `Drop i ->
              let nr = Array.length !live in
              if nr > 0 then begin
                let i = i mod nr in
                Simplex.Incremental.drop_row sx i;
                live := Array.of_list (List.filteri (fun k _ -> k <> i) (Array.to_list !live))
              end);
            ok := agree ()
          end)
        script;
      !ok && Simplex.Incremental.nrows sx = Array.length !live)

(* Bitwise float equality, except that +0 and -0 are equal: a cached
   entry may differ from the full recomputation in the sign of a zero. *)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b || (a = 0. && b = 0.)
let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_float a b

let same_outcome (a : Simplex.outcome) (b : Simplex.outcome) =
  match a, b with
  | Simplex.Optimal a, Simplex.Optimal b ->
    same_float a.value b.value && same_floats a.x b.x
    && same_floats a.row_activity b.row_activity
    && same_floats a.duals b.duals
  | Simplex.Infeasible a, Simplex.Infeasible b ->
    List.length a = List.length b
    && List.for_all2 (fun (i, u) (k, v) -> i = k && same_float u v) a b
  | Simplex.Unbounded, Simplex.Unbounded -> true
  | Simplex.Iteration_limit a, Simplex.Iteration_limit b -> (
    match a, b with
    | None, None -> true
    | Some u, Some v -> same_float u v
    | _, _ -> false)
  | _, _ -> false

(* qcheck: the cached [Tableau_ref] and [Incremental_ref] walk the same script
   of fix/unfix/add_row/drop_row edits over LPs of 20-60 mixed-relation
   rows (right-hand sides planted around a fractional point, so most
   solves are feasible until fixings cut it off).  Every re-solve must
   agree bit for bit: outcome, vertex, activities, duals, witness,
   warm/cold, iterations, pivots and refreshes. *)
let qcheck_cached_equals_reference =
  let nvars = 16 in
  let gen =
    QCheck2.Gen.(
      let coeff = map (fun a -> if a >= 0 then a + 1 else a) (int_range (-4) 3) in
      let rel = oneofl [ Simplex.Ge; Simplex.Ge; Simplex.Le; Simplex.Eq ] in
      let row =
        triple (list_size (int_range 2 6) (pair (int_range 0 (nvars - 1)) coeff)) rel (int_range 0 3)
      in
      let op =
        frequency
          [
            4, map2 (fun v b -> `Fix (v, b)) (int_range 0 (nvars - 1)) bool;
            3, map (fun v -> `Unfix v) (int_range 0 (nvars - 1));
            2, map (fun r -> `Add r) row;
            2, map (fun i -> `Drop i) nat;
          ]
      in
      quad (list_size (int_range 20 60) row)
        (list_size (return nvars) (int_range 0 4))
        (list_size (return nvars) (int_range (-5) 5))
        (pair (list_size (int_range 0 6) op) (list_size (int_range 5 30) op)))
  in
  QCheck2.Test.make ~name:"cached warm re-solves equal the full-recompute reference" ~count:150
    gen (fun (base_rows, point, costs, (prefix, script)) ->
      let point = Array.of_list (List.map (fun q -> float_of_int q /. 4.) point) in
      (* right-hand side at or beyond the planted point's activity *)
      let mk (terms, rel, slack) =
        let coeffs = Array.of_list (List.map (fun (v, a) -> v, float_of_int a) terms) in
        let act = Array.fold_left (fun acc (v, a) -> acc +. (a *. point.(v))) 0. coeffs in
        let slack = float_of_int slack /. 2. in
        let rhs =
          match rel with
          | Simplex.Ge -> act -. slack
          | Simplex.Le -> act +. slack
          | Simplex.Eq -> act
        in
        { Simplex.coeffs; rel; rhs }
      in
      let base =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective = Array.of_list (List.map float_of_int costs);
          rows = Array.of_list (List.map mk base_rows);
        }
      in
      let sx = Tableau_ref.create base and rf = Incremental_ref.create base in
      let sstats = Simplex.stats () and rstats = Simplex.stats () in
      let step = ref 0 in
      let agree () =
        incr step;
        let got = Tableau_ref.reoptimize ~stats:sstats sx in
        let want = Incremental_ref.reoptimize ~stats:rstats rf in
        let gi = Tableau_ref.last_info sx and wi = Incremental_ref.last_info rf in
        if not (same_outcome got want) then
          QCheck2.Test.fail_reportf "solve %d: outcomes differ" !step;
        if gi.warm <> wi.warm || gi.iters <> wi.iters then
          QCheck2.Test.fail_reportf "solve %d: last_info differs" !step;
        if sstats <> rstats then QCheck2.Test.fail_reportf "solve %d: work counts differ" !step
      in
      let apply op =
        match op with
        | `Fix (v, b) ->
          let x = if b then 1. else 0. in
          Tableau_ref.fix sx v x;
          Incremental_ref.fix rf v x
        | `Unfix v ->
          Tableau_ref.unfix sx v;
          Incremental_ref.unfix rf v
        | `Add raw ->
          let r = mk raw in
          ignore (Tableau_ref.add_row sx r);
          ignore (Incremental_ref.add_row rf r)
        | `Drop i ->
          let nr = Tableau_ref.nrows sx in
          if nr > 0 then begin
            Tableau_ref.drop_row sx (i mod nr);
            Incremental_ref.drop_row rf (i mod nr)
          end
      in
      (* edits before the first, cold solve: it may end infeasible, so
         the next warm call follows a phase-1 certificate *)
      List.iter apply prefix;
      agree ();
      List.iter
        (fun op ->
          apply op;
          agree ())
        script;
      true)

(* A cold solve that ends on a phase-1 certificate leaves duals of the
   phase-1 cost behind; the next warm solve must not reuse them.  min x +
   y + z s.t. x + y >= 1, z >= 0.5 with x, y fixed at 0 is infeasible, z
   basic in row 1; after unfixing, the one warm pivot is on row 0 and
   leaves row 1's slack column untouched, yet row 1's phase-2 dual is 1
   where its phase-1 dual was 0.  [Tableau_ref] must match
   [Incremental_ref] bit for bit; the factored engine must re-solve warm
   to the same dual. *)
let duals_after_phase1_certificate () =
  let p =
    lp 3 [ 1.; 1.; 1. ] [ [ 0, 1.; 1, 1. ], Simplex.Ge, 1.; [ (2, 1.) ], Simplex.Ge, 0.5 ]
  in
  let sx = Simplex.Incremental.create p
  and tb = Tableau_ref.create p
  and rf = Incremental_ref.create p in
  List.iter
    (fun v ->
      Simplex.Incremental.fix sx v 0.;
      Tableau_ref.fix tb v 0.;
      Incremental_ref.fix rf v 0.)
    [ 0; 1 ];
  (match Tableau_ref.reoptimize tb, Incremental_ref.reoptimize rf with
  | (Simplex.Infeasible _ as a), b ->
    Alcotest.(check bool) "same certificate" true (same_outcome a b)
  | _ -> Alcotest.fail "expected an infeasible cold solve");
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected an infeasible cold solve from the factored engine");
  List.iter
    (fun v ->
      Simplex.Incremental.unfix sx v;
      Tableau_ref.unfix tb v;
      Incremental_ref.unfix rf v)
    [ 0; 1 ];
  let a = Tableau_ref.reoptimize tb and b = Incremental_ref.reoptimize rf in
  Alcotest.(check bool) "warm" true (Tableau_ref.last_info tb).warm;
  Alcotest.(check bool) "same optimum, duals included" true (same_outcome a b);
  check_float "row 1 dual" 1. (abs_float (expect_optimal a).duals.(1));
  let sol = expect_optimal (Simplex.Incremental.reoptimize sx) in
  Alcotest.(check bool) "factored engine warm" true (Simplex.Incremental.last_info sx).warm;
  check_float "factored optimum" (expect_optimal a).value sol.value;
  check_float "factored row 1 dual" 1. (abs_float sol.duals.(1))

(* min x + 2y s.t. x + y = 1 twice: phase 1 pivots x in on row 0 and
   leaves row 1's artificial basic at 0, so dropping row 1 cannot keep
   the basis. *)
let drop_fallback_counted () =
  let p = lp 2 [ 1.; 2. ] [ [ 0, 1.; 1, 1. ], Simplex.Eq, 1.; [ 0, 1.; 1, 1. ], Simplex.Eq, 1. ] in
  let sx = Simplex.Incremental.create p in
  check_float "optimum" 1. (expect_optimal (Simplex.Incremental.reoptimize sx)).value;
  Alcotest.(check int) "no fallback yet" 0 (Simplex.Incremental.drop_fallbacks sx);
  Simplex.Incremental.drop_row sx 1;
  Alcotest.(check int) "drop fell back" 1 (Simplex.Incremental.drop_fallbacks sx);
  check_float "optimum without row 1" 1.
    (expect_optimal (Simplex.Incremental.reoptimize sx)).value;
  Alcotest.(check bool) "re-solve is cold" false (Simplex.Incremental.last_info sx).warm

(* min -2x + y s.t. y <= 1, x + 2y <= 2 over [0, 1]^2: the optimum x = 1,
   y = 0 has both slacks basic, each in the other's row.  The tableau
   fell back cold on dropping either row; with the row's slack basic
   anywhere, the factored engine deletes it with its row and stays
   warm. *)
let drop_with_slack_basic_elsewhere () =
  let p = lp 2 [ -2.; 1. ] [ [ (1, 1.) ], Simplex.Le, 1.; [ 0, 1.; 1, 2. ], Simplex.Le, 2. ] in
  let tb = Tableau_ref.create p in
  ignore (Tableau_ref.reoptimize tb);
  Tableau_ref.drop_row tb 0;
  Alcotest.(check int) "the tableau fell back" 1 (Tableau_ref.drop_fallbacks tb);
  let sx = Simplex.Incremental.create p in
  check_float "optimum" (-2.) (expect_optimal (Simplex.Incremental.reoptimize sx)).value;
  Simplex.Incremental.drop_row sx 0;
  Alcotest.(check int) "no fallback" 0 (Simplex.Incremental.drop_fallbacks sx);
  check_float "optimum without row 0" (-2.)
    (expect_optimal (Simplex.Incremental.reoptimize sx)).value;
  Alcotest.(check bool) "re-solve is warm" true (Simplex.Incremental.last_info sx).warm

(* qcheck: the factored engine and [Tableau_ref] walk the same script of
   fix/unfix/add_row/drop_row edits over LPs of 20-60 mixed-relation
   rows, planted as in the cached-equals-reference check.  Drops often
   hit a row whose slack is basic in another row, where the tableau
   falls back cold and the factored engine stays warm, so the two reach
   different vertices; the check is on what the LP determines.  Before
   each full re-solve the factored engine also runs a call cut off after
   0, 1 or 2 iterations, whose safe dual bound, when it reports one, must
   not exceed the reference optimum.  Every full re-solve must give the
   reference's outcome kind, an objective within 1e-6 (1 + |z|), a
   vertex inside the bounds that satisfies every row to 1e-6, and, when
   infeasible, a Farkas witness that proves it.  The two may differ only
   where the reference is refuted: the tableau's phase 1 can stop with a
   feasible planted LP called infeasible, its witness proving nothing,
   and its drift can leave an optimal vertex off its rows by more than
   1e-9 and below the exact optimum by more than the tolerance. *)
let qcheck_factored_agrees_with_tableau =
  let nvars = 16 in
  let gen =
    QCheck2.Gen.(
      let coeff = map (fun a -> if a >= 0 then a + 1 else a) (int_range (-4) 3) in
      let rel = oneofl [ Simplex.Ge; Simplex.Ge; Simplex.Le; Simplex.Eq ] in
      let row =
        triple (list_size (int_range 2 6) (pair (int_range 0 (nvars - 1)) coeff)) rel (int_range 0 3)
      in
      let op =
        frequency
          [
            4, map2 (fun v b -> `Fix (v, b)) (int_range 0 (nvars - 1)) bool;
            3, map (fun v -> `Unfix v) (int_range 0 (nvars - 1));
            2, map (fun r -> `Add r) row;
            3, map (fun i -> `Drop i) nat;
          ]
      in
      quad (list_size (int_range 20 60) row)
        (list_size (return nvars) (int_range 0 4))
        (list_size (return nvars) (int_range (-5) 5))
        (pair (list_size (int_range 0 6) op) (list_size (int_range 5 30) op)))
  in
  QCheck2.Test.make ~name:"factored engine agrees with the tableau" ~count:150 gen
    (fun (base_rows, point, costs, (prefix, script)) ->
      let point = Array.of_list (List.map (fun q -> float_of_int q /. 4.) point) in
      let mk (terms, rel, slack) =
        let coeffs = Array.of_list (List.map (fun (v, a) -> v, float_of_int a) terms) in
        let act = Array.fold_left (fun acc (v, a) -> acc +. (a *. point.(v))) 0. coeffs in
        let slack = float_of_int slack /. 2. in
        let rhs =
          match rel with
          | Simplex.Ge -> act -. slack
          | Simplex.Le -> act +. slack
          | Simplex.Eq -> act
        in
        { Simplex.coeffs; rel; rhs }
      in
      let base =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective = Array.of_list (List.map float_of_int costs);
          rows = Array.of_list (List.map mk base_rows);
        }
      in
      let sx = Simplex.Incremental.create base and tb = Tableau_ref.create base in
      let lower = Array.make nvars 0. and upper = Array.make nvars 1. in
      let live = ref base.rows in
      let step = ref 0 in
      let agree () =
        incr step;
        let p = { base with rows = !live; lower = Array.copy lower; upper = Array.copy upper } in
        let want = Tableau_ref.reoptimize tb in
        let tol z = 1e-6 *. (1. +. abs_float z) in
        (match Simplex.Incremental.reoptimize ~max_iters:(!step mod 3) sx, want with
        | Simplex.Iteration_limit (Some z), Simplex.Optimal b when z > b.value +. tol b.value ->
          QCheck2.Test.fail_reportf "solve %d: safe dual bound %g above the optimum %g" !step z
            b.value
        | _, _ -> ());
        (* largest bound or row violation of a vertex *)
        let violation (x : float array) =
          let v = ref 0. in
          Array.iteri
            (fun j xj -> v := Float.max !v (Float.max (lower.(j) -. xj) (xj -. upper.(j))))
            x;
          Array.iter
            (fun (r : Simplex.row) ->
              let act = Array.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0. r.coeffs in
              let d =
                match r.rel with
                | Simplex.Ge -> r.rhs -. act
                | Simplex.Le -> act -. r.rhs
                | Simplex.Eq -> abs_float (act -. r.rhs)
              in
              v := Float.max !v d)
            p.rows;
          !v
        in
        let feasible x = violation x <= 1e-6 in
        let kind = function
          | Simplex.Optimal _ -> "optimal"
          | Simplex.Infeasible _ -> "infeasible"
          | Simplex.Unbounded -> "unbounded"
          | Simplex.Iteration_limit _ -> "iteration limit"
        in
        match Simplex.Incremental.reoptimize sx, want with
        | Simplex.Optimal a, Simplex.Optimal b ->
          (* the tableau's drift can leave its vertex a little off the
             rows, below the true optimum: an exact vertex above it
             settles that *)
          if
            abs_float (a.value -. b.value) > tol b.value
            && not (a.value > b.value && violation a.x <= 1e-9 && violation b.x > 1e-9)
          then
            QCheck2.Test.fail_reportf "solve %d: objective %g, the tableau's %g" !step a.value
              b.value;
          if not (feasible a.x) then
            QCheck2.Test.fail_reportf "solve %d: the vertex breaks a bound or a row" !step
        | Simplex.Infeasible w, Simplex.Infeasible _ ->
          if not (witness_certifies p lower upper w) then
            QCheck2.Test.fail_reportf "solve %d: the witness proves nothing" !step
        | Simplex.Unbounded, Simplex.Unbounded | Simplex.Iteration_limit _, Simplex.Iteration_limit _
          ->
          ()
        (* the tableau's phase 1 can stop short and call a feasible LP
           infeasible: a feasible vertex against a witness that proves
           nothing settles it for the factored engine, and the converse
           too *)
        | Simplex.Optimal a, Simplex.Infeasible w
          when feasible a.x && not (witness_certifies p lower upper w) ->
          ()
        | Simplex.Infeasible w, Simplex.Optimal b
          when witness_certifies p lower upper w && not (feasible b.x) ->
          ()
        | got, _ ->
          QCheck2.Test.fail_reportf "solve %d: %s, the tableau %s" !step (kind got) (kind want)
      in
      let apply op =
        match op with
        | `Fix (v, b) ->
          let x = if b then 1. else 0. in
          Simplex.Incremental.fix sx v x;
          Tableau_ref.fix tb v x;
          lower.(v) <- x;
          upper.(v) <- x
        | `Unfix v ->
          Simplex.Incremental.unfix sx v;
          Tableau_ref.unfix tb v;
          lower.(v) <- 0.;
          upper.(v) <- 1.
        | `Add raw ->
          let r = mk raw in
          ignore (Simplex.Incremental.add_row sx r);
          ignore (Tableau_ref.add_row tb r);
          live := Array.append !live [| r |]
        | `Drop i ->
          let nr = Array.length !live in
          if nr > 0 then begin
            let i = i mod nr in
            Simplex.Incremental.drop_row sx i;
            Tableau_ref.drop_row tb i;
            live := Array.of_list (List.filteri (fun k _ -> k <> i) (Array.to_list !live))
          end
      in
      List.iter apply prefix;
      agree ();
      List.iter
        (fun op ->
          apply op;
          agree ())
        script;
      Simplex.Incremental.nrows sx = Array.length !live)

let suite =
  [
    Alcotest.test_case "simple cover" `Quick simple_cover;
    Alcotest.test_case "fractional optimum" `Quick fractional_optimum;
    Alcotest.test_case "upper bounds bind" `Quick upper_bounds_bind;
    Alcotest.test_case "Le rows" `Quick le_rows;
    Alcotest.test_case "Eq rows" `Quick eq_rows;
    Alcotest.test_case "infeasible detected" `Quick infeasible_detected;
    Alcotest.test_case "row activity" `Quick row_activity_reported;
    Alcotest.test_case "degenerate rows" `Quick degenerate_ok;
    Alcotest.test_case "empty problem" `Quick empty_problem;
    Alcotest.test_case "incremental basics" `Quick incremental_basics;
    Alcotest.test_case "cut row add/drop" `Quick add_row_warm_repair;
    Alcotest.test_case "Eq row drops warm" `Quick eq_row_drops_warm;
    Alcotest.test_case "duals after a phase-1 certificate" `Quick duals_after_phase1_certificate;
    Alcotest.test_case "drop fallback counted" `Quick drop_fallback_counted;
    Alcotest.test_case "drop with the slack basic elsewhere" `Quick drop_with_slack_basic_elsewhere;
    QCheck_alcotest.to_alcotest qcheck_lp_bounds_ip;
    QCheck_alcotest.to_alcotest qcheck_solution_consistent;
    QCheck_alcotest.to_alcotest qcheck_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_cut_rows_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_mixed_rows_certified;
    QCheck_alcotest.to_alcotest qcheck_cached_equals_reference;
    QCheck_alcotest.to_alcotest qcheck_factored_agrees_with_tableau;
  ]
