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
    QCheck_alcotest.to_alcotest qcheck_lp_bounds_ip;
    QCheck_alcotest.to_alcotest qcheck_solution_consistent;
    QCheck_alcotest.to_alcotest qcheck_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_cut_rows_warm_equals_cold;
  ]
