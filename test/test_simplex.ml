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

(* --- certificates ------------------------------------------------------------ *)

(* What any correct LP engine must hand back, checked against the LP
   alone: no second engine is consulted.  [p] carries the current column
   bounds and rows; every test LP is boxed. *)

let tol z = 1e-6 *. (1. +. abs_float z)
let dot coeffs x = Array.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. coeffs

(* An Optimal solution certifies when its vertex is inside the bounds,
   meets every row to 1e-6 and has the reported activities and value,
   and its duals are dual feasible ([Ge] >= 0, [Le] <= 0, reduced costs
   c - yA signed by the bound the column rests on, ~0 when interior),
   nonzero only on tight rows, with a Lagrangian value equal to the
   optimum.  Returns the first failure. *)
let optimal_error (p : Simplex.problem) (s : Simplex.solution) =
  let fail fmt = Printf.ksprintf Option.some fmt in
  let m = Array.length p.rows in
  let act = Array.map (fun (r : Simplex.row) -> dot r.coeffs s.x) p.rows in
  let y = s.duals in
  let rc = Array.copy p.objective in
  Array.iteri
    (fun i (r : Simplex.row) ->
      Array.iter (fun (j, a) -> rc.(j) <- rc.(j) -. (y.(i) *. a)) r.coeffs)
    p.rows;
  let lagrangian = ref 0. in
  Array.iteri (fun i (r : Simplex.row) -> lagrangian := !lagrangian +. (y.(i) *. r.rhs)) p.rows;
  Array.iteri
    (fun j d -> lagrangian := !lagrangian +. min (d *. p.lower.(j)) (d *. p.upper.(j)))
    rc;
  let first n f = Seq.find_map f (Seq.init n Fun.id) in
  let errors =
    [
      (fun () ->
        first p.ncols (fun j ->
            if s.x.(j) < p.lower.(j) -. 1e-6 || s.x.(j) > p.upper.(j) +. 1e-6 then
              fail "x%d = %g outside [%g, %g]" j s.x.(j) p.lower.(j) p.upper.(j)
            else None));
      (fun () ->
        first m (fun i ->
            let r = p.rows.(i) in
            let v =
              match r.rel with
              | Simplex.Ge -> r.rhs -. act.(i)
              | Simplex.Le -> act.(i) -. r.rhs
              | Simplex.Eq -> abs_float (act.(i) -. r.rhs)
            in
            if v > 1e-6 then fail "row %d violated by %g" i v
            else if abs_float (act.(i) -. s.row_activity.(i)) > 1e-6 then
              fail "row %d activity %g reported as %g" i act.(i) s.row_activity.(i)
            else None));
      (fun () ->
        let z = Array.fold_left ( +. ) 0. (Array.map2 ( *. ) p.objective s.x) in
        if abs_float (z -. s.value) > tol z then fail "value %g but c.x = %g" s.value z else None);
      (fun () ->
        first m (fun i ->
            let r = p.rows.(i) in
            match r.rel with
            | Simplex.Ge when y.(i) < -1e-6 -> fail "Ge row %d has dual %g < 0" i y.(i)
            | Simplex.Le when y.(i) > 1e-6 -> fail "Le row %d has dual %g > 0" i y.(i)
            | _ when abs_float y.(i) > 1e-6 && abs_float (act.(i) -. r.rhs) > 1e-6 ->
              fail "row %d has dual %g but slack %g" i y.(i) (act.(i) -. r.rhs)
            | _ -> None));
      (fun () ->
        first p.ncols (fun j ->
            let d = rc.(j) and lo = p.lower.(j) and up = p.upper.(j) in
            let at_lower = s.x.(j) <= lo +. 1e-6 and at_upper = s.x.(j) >= up -. 1e-6 in
            if
              abs_float d <= 1e-6 || (at_lower && d >= 0.) || (at_upper && d <= 0.)
            then None
            else fail "x%d = %g in [%g, %g] has reduced cost %g" j s.x.(j) lo up d));
      (fun () ->
        if abs_float (!lagrangian -. s.value) > tol s.value then
          fail "Lagrangian value %g, optimum %g" !lagrangian s.value
        else None);
    ]
  in
  List.find_map (fun check -> check ()) errors

(* Integer arithmetic that stays strictly inside +-2^61, where a sum of
   two values cannot wrap, or raises [Overflow]. *)
exception Overflow

let limit = 1 lsl 61
let add_exn a b = if abs (a + b) >= limit then raise Overflow else a + b
let mul_exn a b = if a <> 0 && abs b >= limit / abs a then raise Overflow else a * b

(* An integral float as an int, or [Overflow]. *)
let to_int v =
  if Float.is_integer v && abs_float v < 0x1p52 then int_of_float v else raise Overflow

(* A witness [w] certifies in orientation [o] (+1 or -1) when mu = o w has
   [mu_i >= 0] on [Ge] rows and [mu_i <= 0] on [Le] rows and the combined
   row sum_i mu_i a_i x >= sum_i mu_i b_i cannot be met over the box:
   first in floats, then exactly.  The exact check scales every row by
   [scale] to integers, rounds the multipliers to multiples of
   1 / Proof.denom, and compares the integer box maximum of the
   combination with its right-hand side; a multiplier of the wrong sign
   after rounding, a non-integral scaled row or an overflow fails. *)
let witness_error ~scale (p : Simplex.problem) w =
  let in_floats o =
    let lhs = Array.make p.ncols 0. and rhs = ref 0. and signs_ok = ref true in
    List.iter
      (fun (i, wi) ->
        let mu = o *. wi and r = p.rows.(i) in
        (match r.rel with
        | Simplex.Ge -> if mu < -1e-9 then signs_ok := false
        | Simplex.Le -> if mu > 1e-9 then signs_ok := false
        | Simplex.Eq -> ());
        rhs := !rhs +. (mu *. r.rhs);
        Array.iter (fun (j, a) -> lhs.(j) <- lhs.(j) +. (mu *. a)) r.coeffs)
      w;
    let best = ref 0. in
    Array.iteri (fun j a -> best := !best +. max (a *. p.lower.(j)) (a *. p.upper.(j))) lhs;
    !signs_ok && !best < !rhs -. 1e-7
  in
  let exactly o =
    let scaled v = to_int (v *. float_of_int scale) in
    let lhs = Array.make p.ncols 0 and rhs = ref 0 in
    try
      List.iter
        (fun (i, wi) ->
          let mu = to_int (Float.round (o *. wi *. float_of_int Proof.denom)) and r = p.rows.(i) in
          (match r.rel with
          | Simplex.Ge -> if mu < 0 then raise Exit
          | Simplex.Le -> if mu > 0 then raise Exit
          | Simplex.Eq -> ());
          rhs := add_exn !rhs (mul_exn mu (scaled r.rhs));
          Array.iter (fun (j, a) -> lhs.(j) <- add_exn lhs.(j) (mul_exn mu (scaled a))) r.coeffs)
        w;
      let best = ref 0 in
      Array.iteri
        (fun j a ->
          let lo = to_int p.lower.(j) and up = to_int p.upper.(j) in
          best := add_exn !best (max (mul_exn a lo) (mul_exn a up)))
        lhs;
      !best < !rhs
    with Overflow | Exit -> false
  in
  match List.filter in_floats [ 1.; -1. ] with
  | [] -> Some "the witness proves nothing"
  | orients when List.exists exactly orients -> None
  | _ -> Some "the witness fails the exact integer re-check"

(* The one check applied to every solve that ran to the end. *)
let certificate_error ~scale p = function
  | Simplex.Optimal s -> optimal_error p s
  | Simplex.Infeasible w -> witness_error ~scale p w
  | Simplex.Unbounded -> Some "unbounded, but every test LP is boxed"
  | Simplex.Iteration_limit _ -> Some "iteration limit on a full solve"

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

(* min x + 2y s.t. x + y >= 1, x <= 0.5: x = y = 0.5, and y = c_B B^-1
   gives the Ge row +2 and the Le row -1. *)
let dual_signs () =
  let sol =
    expect_optimal
      (cold (lp 2 [ 1.; 2. ] [ [ 0, 1.; 1, 1. ], Simplex.Ge, 1.; [ (0, 1.) ], Simplex.Le, 0.5 ]))
  in
  check_float "objective" 1.5 sol.value;
  check_float "Ge row dual" 2. sol.duals.(0);
  check_float "Le row dual" (-1.) sol.duals.(1)

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

(* qcheck: a cold solve of a random covering LP certifies (a feasible
   vertex with the reported activities and value, and duals proving it
   optimal), and calls it infeasible only when it is. *)
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
      let problem =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective = Array.init nvars (fun v -> float_of_int (v + 1));
          rows = Array.of_list rows;
        }
      in
      (* positive Ge rows are feasible iff satisfiable at x = 1 *)
      let feasible_at_ones =
        List.for_all
          (fun (terms, rhs) -> List.fold_left (fun acc (_, a) -> acc + a) 0 terms >= rhs)
          raw_rows
      in
      let outcome = cold problem in
      (match outcome with Simplex.Infeasible _ -> not feasible_at_ones | _ -> true)
      && certificate_error ~scale:1 problem outcome = None)

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

(* Apply an edit to the engine and to [p], the LP it should then be
   solving (columns unfix to [0, 1]); returns the edited LP. *)
let edit sx (p : Simplex.problem) = function
  | `Fix (v, x) ->
    Simplex.Incremental.fix sx v x;
    p.lower.(v) <- x;
    p.upper.(v) <- x;
    p
  | `Unfix v ->
    Simplex.Incremental.unfix sx v;
    p.lower.(v) <- 0.;
    p.upper.(v) <- 1.;
    p
  | `Add r ->
    ignore (Simplex.Incremental.add_row sx r);
    { p with rows = Array.append p.rows [| r |] }
  | `Drop i ->
    let nr = Array.length p.rows in
    if nr = 0 then p
    else begin
      let i = i mod nr in
      Simplex.Incremental.drop_row sx i;
      { p with rows = Array.of_list (List.filteri (fun k _ -> k <> i) (Array.to_list p.rows)) }
    end

(* qcheck: Ge/Le/Eq rows with signed coefficients and right-hand sides
   (so phase 1 starts with negated rows, and artificials can re-enter)
   under scripts mixing fix/unfix/add_row/drop_row at any index.  Every
   warm re-solve, and a cold solve of the same edited LP, must carry its
   certificate; two certified outcomes of one LP agree. *)
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
      let p = ref base and step = ref 0 in
      let check () =
        incr step;
        List.iter
          (fun (which, outcome) ->
            match certificate_error ~scale:1 !p outcome with
            | Some e -> QCheck2.Test.fail_reportf "solve %d, %s: %s" !step which e
            | None -> ())
          [ "warm", Simplex.Incremental.reoptimize sx; "cold", cold !p ]
      in
      check ();
      List.iter
        (fun op ->
          let op =
            match op with
            | `Fix (v, b) -> `Fix (v, if b then 1. else 0.)
            | `Add raw -> `Add (mk raw)
            | (`Unfix _ | `Drop _) as op -> op
          in
          p := edit sx !p op;
          check ())
        script;
      Simplex.Incremental.nrows sx = Array.length !p.rows)

(* A cold solve that ends on a phase-1 certificate leaves duals of the
   phase-1 cost behind; the next warm solve must not reuse them.  min x +
   y + z s.t. x + y >= 1, z >= 0.5 with x, y fixed at 0 is infeasible, z
   basic in row 1; after unfixing, the warm re-solve leaves row 1's slack
   column untouched, yet row 1's phase-2 dual is 1 where its phase-1 dual
   was 0. *)
let duals_after_phase1_certificate () =
  let p =
    lp 3 [ 1.; 1.; 1. ] [ [ 0, 1.; 1, 1. ], Simplex.Ge, 1.; [ (2, 1.) ], Simplex.Ge, 0.5 ]
  in
  let sx = Simplex.Incremental.create p in
  List.iter (fun v -> Simplex.Incremental.fix sx v 0.) [ 0; 1 ];
  (match Simplex.Incremental.reoptimize sx with
  | Simplex.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected an infeasible cold solve");
  List.iter (fun v -> Simplex.Incremental.unfix sx v) [ 0; 1 ];
  let sol = expect_optimal (Simplex.Incremental.reoptimize sx) in
  Alcotest.(check bool) "warm" true (Simplex.Incremental.last_info sx).warm;
  check_float "optimum" 1.5 sol.value;
  check_float "row 1 dual" 1. sol.duals.(1)

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
   y = 0 has both slacks basic, each in the other's row.  With the row's
   slack basic anywhere, the engine deletes it with its row and stays
   warm. *)
let drop_with_slack_basic_elsewhere () =
  let p = lp 2 [ -2.; 1. ] [ [ (1, 1.) ], Simplex.Le, 1.; [ 0, 1.; 1, 2. ], Simplex.Le, 2. ] in
  let sx = Simplex.Incremental.create p in
  check_float "optimum" (-2.) (expect_optimal (Simplex.Incremental.reoptimize sx)).value;
  Simplex.Incremental.drop_row sx 0;
  Alcotest.(check int) "no fallback" 0 (Simplex.Incremental.drop_fallbacks sx);
  check_float "optimum without row 0" (-2.)
    (expect_optimal (Simplex.Incremental.reoptimize sx)).value;
  Alcotest.(check bool) "re-solve is warm" true (Simplex.Incremental.last_info sx).warm

(* A zero-cost LP over [0, 1]^ncols (the [fixed] columns at 0) from rows
   written "rel rhs col:coeff ...", solved cold; it must certify. *)
let cold_certifies ?(fixed = []) ncols rows =
  let row s =
    match String.split_on_char ' ' s with
    | rel :: rhs :: terms ->
      let rel = match rel with "G" -> Simplex.Ge | "L" -> Simplex.Le | _ -> Simplex.Eq in
      let term t = Scanf.sscanf t "%d:%f" (fun j a -> j, a) in
      { Simplex.coeffs = Array.of_list (List.map term terms); rel; rhs = float_of_string rhs }
    | _ -> invalid_arg s
  in
  let upper j = if List.mem j fixed then 0. else 1. in
  let p = lp ncols (List.init ncols (fun _ -> 0.)) [] ~upper in
  let p = { p with rows = Array.of_list (List.map row rows) } in
  match certificate_error ~scale:4 p (cold p) with
  | Some e -> Alcotest.fail e
  | None -> ()

(* Phase 1 cycles here under Dantzig pricing, and also under Bland's
   rule (past half the iteration budget) unless its ratio-test ties go to
   the smallest column index rather than the first basis position.
   Feasible; found among random planted LPs. *)
let bland_breaks_a_cycle () =
  cold_certifies ~fixed:[ 2 ] 12
    [
      "E 2 8:3 9:-2 9:1 7:-2"; "G -3 10:3 3:-3 3:-3"; "G 0.75 6:2 3:-4 7:3 8:1";
      "G 0 5:4 5:-2"; "G -0.25 10:2 9:3 7:-1 5:-4 7:-3"; "G -4.5 6:-3 7:-2 10:2 0:1 0:4";
      "L 0.5 9:2 1:-3"; "L 1 11:3 7:-1 0:-2 1:4"; "L 5.25 0:4 4:3 8:4"; "E -2 7:2 3:-4";
      "G -2.5 7:-4 3:-2 3:-1"; "L 0 1:-4 10:-2"; "L 7 11:-2 7:1 0:-3 4:4 6:4 11:3";
      "L -0.5 9:-2 10:-1 0:1"; "E 0 11:-1 1:-2 0:-1"; "G 0.5 10:-3 0:-4 8:2 3:-2";
      "G -2.25 0:-1 4:-3 11:-4"; "G -0.5 9:-2 7:3 9:1 11:1"; "G 4 10:-1 6:4";
      "G 3 0:2 5:4 5:3 3:2 9:1"; "E -3.75 9:-3 8:1 8:-4 5:-3 10:-4";
      "G -1.5 3:-2 0:2 1:-3 5:-2"; "G -1.5 1:3 1:4 8:3 4:-3"; "E 3 6:4 3:1 10:3 3:-3";
      "G -7.25 6:-3 11:-3 4:1 6:-4 10:-2"; "L 5.25 4:1 9:4 6:3 9:2 11:4";
      "G -1 8:-2 9:-1 11:1 7:-3 4:1"; "L 3.5 1:4 6:3 5:-1 8:1 0:-2"; "G -5 6:-3 4:-4 8:2 10:4";
    ]

(* Phase 1 ends feasible within its tolerance with basic artificials off
   0: phase 2 must start from recomputed basic values, since clamping the
   artificials to 0 leaves the vertex 2.7e-5 off row 8.  Found among
   random planted LPs. *)
let phase2_from_consistent_values () =
  cold_certifies 16
    [
      "G -4.5 2:1 15:-4 0:-3"; "G 2.25 14:-3 15:4"; "G -5.5 2:-4 15:-4"; "L -1 1:-3 3:2 6:-4";
      "G 1 15:3 7:2 3:-2"; "G -5 1:-4 6:-3 10:-1"; "L -0.75 1:-4 2:1"; "G 0 12:2 13:3 13:-4";
      "E -0.5 13:-1 13:4 6:-2"; "L 1.25 1:2 7:4 2:4 3:-4 10:3 13:-3";
      "L 0.5 14:-3 5:4 13:-4 11:1 0:1 6:4"; "L -0.75 13:-4 1:4 6:1 4:3 10:-4";
      "L 0.75 0:-3 5:-4"; "G -0.75 3:-1 12:-4 13:-4 9:-1"; "G -3.25 7:3 4:-4 0:-1 11:-4 3:-4";
      "E 3 15:2 9:-4 12:-2 11:2 1:2"; "L -4.75 10:1 10:-4 15:-4";
      "E 0.75 4:-2 0:3 11:4 13:2 5:-3 12:-3"; "G -2.75 3:-3";
      "G 5.5 15:4 9:3 14:2 1:1 13:-1 0:2"; "E 1.5 10:2 9:4"; "L 1.5 7:-1 4:4 11:3 11:3";
      "G -1 11:-2 15:-1 8:-4"; "G -4 14:2 15:-4 2:2"; "E -2 3:-3 5:-4 0:1";
      "G 1.75 6:4 10:4 3:-3"; "G -3 15:-3 4:3"; "L 0.75 2:-3 11:3 9:-3";
      "G 3.25 15:4 0:1 2:-1 14:3"; "G 1.75 2:-1 15:3 10:-4 1:4 5:-3";
      "L 3.5 4:-3 2:-4 6:2 15:3"; "L -2.75 5:-3 0:-3 2:-2 2:-3 10:-1 4:2"; "L 2.5 1:1 6:4";
      "L 0.75 13:-2 9:-4 3:-1 6:2";
    ]

(* qcheck: scripts of fix/unfix/add_row/drop_row edits over LPs of 20-60
   mixed-relation rows whose right-hand sides are planted around a point
   on the quarter grid, big enough to refactor and to grow the eta file.
   Two fixings in three pin a column whose planted coordinate is 0 or 1
   to it, so the point stays feasible longer and about half of the solves
   end Optimal.  Every full re-solve must carry its certificate.  Before
   each one, a call cut off after 0, 1 or 2 iterations runs first: its
   safe dual bound, when it reports one, must not exceed the certified
   optimum that follows, and an outcome it reaches within the cut must
   certify too. *)
let qcheck_factored_certified =
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
            1, map2 (fun v b -> `Fix (v, b)) (int_range 0 (nvars - 1)) bool;
            2, map (fun v -> `Fix_planted v) (int_range 0 (nvars - 1));
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
  QCheck2.Test.make ~name:"factored engine carries its certificates" ~count:150 gen
    (fun (base_rows, point, costs, (prefix, script)) ->
      let point = Array.of_list (List.map (fun q -> float_of_int q /. 4.) point) in
      (* right-hand side at or beyond the planted point's activity *)
      let mk (terms, rel, slack) =
        let coeffs = Array.of_list (List.map (fun (v, a) -> v, float_of_int a) terms) in
        let act = dot coeffs point in
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
      let sx = Simplex.Incremental.create base in
      let p = ref base and step = ref 0 in
      let check () =
        incr step;
        let certify which outcome =
          match certificate_error ~scale:4 !p outcome with
          | Some e -> QCheck2.Test.fail_reportf "solve %d, %s: %s" !step which e
          | None -> ()
        in
        let truncated = Simplex.Incremental.reoptimize ~max_iters:(!step mod 3) sx in
        let full = Simplex.Incremental.reoptimize sx in
        certify "full" full;
        match truncated, full with
        | Simplex.Iteration_limit (Some z), Simplex.Optimal b when z > b.value +. tol b.value ->
          QCheck2.Test.fail_reportf "solve %d: safe dual bound %g above the optimum %g" !step z
            b.value
        | Simplex.Iteration_limit _, _ -> ()
        | outcome, _ -> certify "truncated" outcome
      in
      let apply op =
        match op with
        | `Fix (v, b) -> p := edit sx !p (`Fix (v, if b then 1. else 0.))
        | `Fix_planted v -> (
          (* the first column from [v] on whose planted coordinate is 0 or 1 *)
          let integral k = point.(k) = 0. || point.(k) = 1. in
          match List.find_opt integral (List.init nvars (fun k -> (v + k) mod nvars)) with
          | Some k -> p := edit sx !p (`Fix (k, point.(k)))
          | None -> ())
        | `Add raw -> p := edit sx !p (`Add (mk raw))
        | (`Unfix _ | `Drop _) as op -> p := edit sx !p op
      in
      (* edits before the first, cold solve: it may end infeasible, so
         the next warm call follows a phase-1 certificate *)
      List.iter apply prefix;
      check ();
      List.iter
        (fun op ->
          apply op;
          check ())
        script;
      Simplex.Incremental.nrows sx = Array.length !p.rows)

(* --- the factorization ---------------------------------------------------------- *)

(* qcheck: LU of random sparse bases, as the simplex makes them: some
   positions hold a singleton column (a slack or artificial, one entry
   on its own row), the rest a nucleus column with a diagonal entry of
   magnitude 1-4 and up to three off-diagonal entries of magnitude at
   most 0.3, so the matrix is column diagonally dominant, hence
   nonsingular.  Right after [factor] and after each of up to 31
   [update]s (the position replaced is the entering column's largest
   FTRAN entry), FTRAN and BTRAN must solve to residual 1e-9.  Making
   the basis rank deficient instead (a column repeated, or scaled by
   -2, or a second singleton on a taken row) must raise [Singular]. *)
let qcheck_lu_residuals =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 60) (pair (int_bound 1_000_000) (int_range 0 31)))
  in
  QCheck2.Test.make ~name:"LU solves sparse bases and detects singular ones" ~count:300 gen
    (fun (m, (seed, nupdates)) ->
      let module Lu = Simplex.Lu in
      let rng = Random.State.make [| seed |] in
      let rows = Array.init m Fun.id in
      for k = m - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let t = rows.(k) in
        rows.(k) <- rows.(j);
        rows.(j) <- t
      done;
      let sign () = if Random.State.bool rng then 1. else -1. in
      let column k =
        let d = (sign () *. (1. +. Random.State.float rng 3.), rows.(k)) in
        if Random.State.int rng 3 = 0 then [ d ]
        else
          let others =
            List.sort_uniq compare
              (List.init (Random.State.int rng 4) (fun _ -> Random.State.int rng m))
          in
          d
          :: List.filter_map
               (fun i ->
                 if i = rows.(k) then None
                 else Some (sign () *. Random.State.float rng 0.3, i))
               others
      in
      let cols = Array.init m column in
      let factor cols =
        let lu = Lu.create () in
        Lu.factor lu m (fun k emit -> List.iter (fun (v, i) -> emit i v) cols.(k));
        lu
      in
      (* B x by row, x by position *)
      let times cols x =
        let b = Array.make m 0. in
        Array.iteri (fun k col -> List.iter (fun (v, i) -> b.(i) <- b.(i) +. (v *. x.(k))) col) cols;
        b
      in
      let random_vector () =
        Array.init m (fun _ ->
            if Random.State.int rng 3 = 0 then Random.State.float rng 2. -. 1. else 0.)
      in
      let residuals lu cols =
        let a = random_vector () in
        let x = Array.make m 0. in
        Lu.ftran lu (Array.copy a) x;
        let bx = times cols x in
        let c = random_vector () in
        let y = Array.make m 0. in
        Lu.btran lu (Array.copy c) y;
        let worst = ref 0. in
        Array.iteri (fun i v -> worst := Float.max !worst (abs_float (v -. a.(i)))) bx;
        Array.iteri
          (fun k col ->
            let yb = List.fold_left (fun s (v, i) -> s +. (v *. y.(i))) 0. col in
            worst := Float.max !worst (abs_float (yb -. c.(k))))
          cols;
        !worst
      in
      let fail fmt = Printf.ksprintf (fun s -> QCheck2.Test.fail_reportf "seed %d: %s" seed s) fmt in
      let lu = factor cols in
      let r = residuals lu cols in
      if r > 1e-9 then fail "residual %g after factor" r;
      for u = 1 to nupdates do
        let col = column (Random.State.int rng m) in
        let a = Array.make m 0. in
        List.iter (fun (v, i) -> a.(i) <- v) col;
        let alpha = Array.make m 0. in
        Lu.ftran lu a alpha;
        let r = ref 0 in
        Array.iteri (fun k v -> if abs_float v > abs_float alpha.(!r) then r := k) alpha;
        if abs_float alpha.(!r) > 0.1 then begin
          Lu.update lu !r alpha;
          cols.(!r) <- col;
          let res = residuals lu cols in
          if res > 1e-9 then fail "residual %g after %d updates" res u
        end
      done;
      if m >= 2 then begin
        let k1 = Random.State.int rng m in
        let k2 = (k1 + 1 + Random.State.int rng (m - 1)) mod m in
        let bad = Array.map (fun c -> c) cols in
        (match Random.State.int rng 3 with
        | 0 -> bad.(k2) <- bad.(k1)
        | 1 -> bad.(k2) <- List.map (fun (v, i) -> (-2. *. v, i)) bad.(k1)
        | _ ->
          bad.(k1) <- [ (1., rows.(0)) ];
          bad.(k2) <- [ (-1., rows.(0)) ]);
        match factor bad with
        | _ -> fail "a rank-deficient basis factored"
        | exception Lu.Singular -> ()
      end;
      true)

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
    Alcotest.test_case "dual signs" `Quick dual_signs;
    Alcotest.test_case "incremental basics" `Quick incremental_basics;
    Alcotest.test_case "cut row add/drop" `Quick add_row_warm_repair;
    Alcotest.test_case "Eq row drops warm" `Quick eq_row_drops_warm;
    Alcotest.test_case "duals after a phase-1 certificate" `Quick duals_after_phase1_certificate;
    Alcotest.test_case "drop fallback counted" `Quick drop_fallback_counted;
    Alcotest.test_case "drop with the slack basic elsewhere" `Quick drop_with_slack_basic_elsewhere;
    Alcotest.test_case "Bland's rule breaks a cycle" `Quick bland_breaks_a_cycle;
    Alcotest.test_case "phase 2 from consistent basic values" `Quick phase2_from_consistent_values;
    QCheck_alcotest.to_alcotest qcheck_lp_bounds_ip;
    QCheck_alcotest.to_alcotest qcheck_solution_consistent;
    QCheck_alcotest.to_alcotest qcheck_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_cut_rows_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_mixed_rows_certified;
    QCheck_alcotest.to_alcotest qcheck_factored_certified;
    QCheck_alcotest.to_alcotest qcheck_lu_residuals;
  ]
