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

(* The textbook dense two-phase primal that a cold solve must reproduce
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
     differ) of an engine cold solve with the reference. *)
  let agrees (p : Simplex.problem) =
    let stats = Simplex.stats () in
    let got = Simplex.Incremental.reoptimize ~stats (Simplex.Incremental.create p) in
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
   and that cold solve must match [Dense_ref] exactly; an Optimal
   solve's duals must certify its value through the Lagrangian bound,
   and an Infeasible witness must certify infeasibility. *)
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
    QCheck_alcotest.to_alcotest qcheck_lp_bounds_ip;
    QCheck_alcotest.to_alcotest qcheck_solution_consistent;
    QCheck_alcotest.to_alcotest qcheck_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_cut_rows_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_mixed_rows_certified;
  ]
