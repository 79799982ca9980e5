open Pbo
module Core = Engine.Solver_core

(* Drive an engine to a random interior node (propagated, conflict-free).
   Returns None when the walk hits a conflict or exhausts variables. *)
let random_node problem seed depth =
  let engine = Core.create problem in
  if Core.root_unsat engine then None
  else begin
    let rng = Random.State.make [| seed; 0xbead |] in
    let rec walk d =
      match Core.propagate engine with
      | Some _ -> None
      | None ->
        if d = 0 || Core.all_assigned engine then Some engine
        else begin
          match Core.next_branch_var engine with
          | None -> Some engine
          | Some v ->
            Core.decide engine (Lit.make v (Random.State.bool rng));
            walk (d - 1)
        end
    in
    walk depth
  end

(* Minimum total cost over completions of the current assignment that
   satisfy every problem constraint; None if no completion does. *)
let residual_optimum problem engine =
  let nvars = Problem.nvars problem in
  let free = ref [] in
  for v = nvars - 1 downto 0 do
    if Value.equal (Core.value_var engine v) Value.Unknown then free := v :: !free
  done;
  let free = Array.of_list !free in
  let k = Array.length free in
  let base = Array.init nvars (fun v -> Value.equal (Core.value_var engine v) Value.True) in
  let best = ref None in
  for mask = 0 to (1 lsl k) - 1 do
    let a = Array.copy base in
    Array.iteri (fun i v -> a.(v) <- (mask lsr i) land 1 = 1) free;
    let m = Model.of_array a in
    if Model.satisfies problem m then begin
      let c = Model.cost problem m in
      match !best with
      | Some b when b <= c -> ()
      | Some _ | None -> best := Some c
    end
  done;
  !best

let offset problem = match Problem.objective problem with None -> 0 | Some o -> o.offset

(* The literals of [c] currently false, for the list-based explanation
   references. *)
let false_lits engine c =
  Constr.fold_lits
    (fun l acc -> if Value.equal (Core.value_lit engine l) Value.False then l :: acc else acc)
    c []

(* LPR with a fresh incremental context per call: one cold solve of the
   full-LP formulation behind the warm path. *)
let lpr_fresh engine ~cap = Lowerbound.Lpr.compute_inc (Lowerbound.Lpr.make engine) ~cap

(* Independent LPR oracle: the residual LP of {!Lowerbound.Residual.extract}
   (unsatisfied rows over unassigned columns only), solved cold by a fresh
   simplex state.  [None] when the LP gives no verdict. *)
let residual_lp_bound engine ~cap =
  let res = Lowerbound.Residual.extract engine in
  if Array.length res.rows = 0 then Some 0
  else begin
    let lp =
      {
        Simplex.ncols = res.ncols;
        lower = Array.make res.ncols 0.;
        upper = Array.make res.ncols 1.;
        objective = res.obj;
        rows =
          Array.map
            (fun (r : Lowerbound.Residual.row) ->
              { Simplex.coeffs = r.coeffs; rel = Simplex.Ge; rhs = r.rhs })
            res.rows;
      }
    in
    match Simplex.Incremental.reoptimize (Simplex.Incremental.create lp) with
    | Simplex.Optimal sol -> Some (Lowerbound.Bound.trusted_value (sol.value +. res.obj_offset))
    | Simplex.Infeasible _ -> Some cap
    | Simplex.Unbounded | Simplex.Iteration_limit _ -> None
  end

let methods =
  [
    "mis", (fun engine ~cap -> ignore cap; Lowerbound.Mis.compute (Lowerbound.Mis.create engine));
    "lgr", (fun engine ~cap -> Lowerbound.Lgr.compute engine ~cap);
    "lpr", lpr_fresh;
  ]

(* Soundness: path + bound <= cost of the best completion. *)
let bound_soundness () =
  for seed = 0 to 120 do
    let problem = Gen.problem seed in
    if Problem.nvars problem <= 14 then begin
      match random_node problem seed (2 + (seed mod 5)) with
      | None -> ()
      | Some engine ->
        let cap = Problem.max_cost_sum problem + 1 in
        let opt = residual_optimum problem engine in
        List.iter
          (fun (name, compute) ->
            let b = compute engine ~cap in
            match opt with
            | None -> ()  (* no completion: any bound is fine *)
            | Some total ->
              let claimed = Core.path_cost engine + b.Lowerbound.Bound.value + offset problem in
              if claimed > total then
                Alcotest.failf "seed %d: %s claims %d > optimum %d" seed name claimed total)
          methods
    end
  done

(* Explanation entailment: any full model whose cost beats path + bound
   must satisfy the clause omega_pp ∪ omega_pl. *)
let explanation_entailment () =
  for seed = 0 to 120 do
    let problem = Gen.covering ~nvars:10 ~nclauses:12 seed in
    match random_node problem seed (2 + (seed mod 4)) with
    | None -> ()
    | Some engine ->
      let cap = Problem.max_cost_sum problem + 1 in
      List.iter
        (fun (name, compute) ->
          let b = compute engine ~cap in
          if b.Lowerbound.Bound.value > 0 then begin
            let omega = Lowerbound.Bound.omega_bc engine b in
            let threshold = Core.path_cost engine + b.value + offset problem in
            let nvars = Problem.nvars problem in
            for mask = 0 to (1 lsl nvars) - 1 do
              let m = Model.of_array (Array.init nvars (fun v -> (mask lsr v) land 1 = 1)) in
              if Model.satisfies problem m && Model.cost problem m < threshold then begin
                let clause_sat = List.exists (fun l -> Model.lit_true m l) omega in
                if not clause_sat then
                  Alcotest.failf "seed %d: %s explanation not entailed (cost %d < %d)" seed
                    name (Model.cost problem m) threshold
              end
            done
          end)
        methods
  done

(* LPR-specific: the branch hint names an unassigned variable. *)
let lpr_branch_hint_valid () =
  for seed = 0 to 60 do
    let problem = Gen.covering seed in
    match random_node problem seed 2 with
    | None -> ()
    | Some engine ->
      let b = lpr_fresh engine ~cap:1000 in
      (match b.branch_hint with
      | None -> ()
      | Some v ->
        if not (Value.equal (Core.value_var engine v) Value.Unknown) then
          Alcotest.failf "seed %d: hint on assigned variable" seed)
  done

(* The LPR bound dominates MIS on covering problems most of the time; at
   minimum it must never be beaten by more than rounding on single
   constraints it could have selected itself.  We assert the weaker,
   always-true property: both are sound and LPR >= each individual
   constraint's contribution is implied by LP optimality.  Here we just
   record the empirical dominance to catch regressions. *)
let lpr_at_least_mis_often () =
  let wins = ref 0 and total = ref 0 in
  for seed = 0 to 60 do
    let problem = Gen.covering ~nvars:12 ~nclauses:16 seed in
    match random_node problem seed 2 with
    | None -> ()
    | Some engine ->
      let cap = Problem.max_cost_sum problem + 1 in
      let lpr = (lpr_fresh engine ~cap).value in
      let mis = (Lowerbound.Mis.compute (Lowerbound.Mis.create engine)).value in
      incr total;
      if lpr >= mis then incr wins
  done;
  if !total > 10 && !wins * 10 < !total * 8 then
    Alcotest.failf "LPR >= MIS only on %d/%d nodes" !wins !total

(* Residual extraction invariants. *)
let residual_extraction () =
  for seed = 0 to 40 do
    let problem = Gen.problem seed in
    match random_node problem seed 3 with
    | None -> ()
    | Some engine ->
      let res = Lowerbound.Residual.extract engine in
      Array.iter
        (fun (row : Lowerbound.Residual.row) ->
          Array.iter
            (fun (col, coeff) ->
              if col < 0 || col >= res.ncols then Alcotest.fail "column out of range";
              if coeff = 0. then Alcotest.fail "zero coefficient";
              let v = res.cols.(col) in
              if not (Value.equal (Core.value_var engine v) Value.Unknown) then
                Alcotest.fail "assigned variable in residual")
            row.coeffs)
        res.rows
  done

let satisfied_node_bound_zero () =
  (* at a node where all constraints are satisfied the bounds are 0 *)
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_clause b [ Lit.pos 0 ];
  Problem.Builder.set_objective b [ 1, Lit.pos 1; 1, Lit.pos 2 ];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  ignore (Core.propagate engine);
  (* x0 forced true; all constraints satisfied, x1 x2 free *)
  List.iter
    (fun (name, compute) ->
      let v = (compute engine ~cap:100).Lowerbound.Bound.value in
      if v <> 0 then Alcotest.failf "%s: expected 0 got %d" name v)
    methods

let suite =
  [
    Alcotest.test_case "bound soundness" `Slow bound_soundness;
    Alcotest.test_case "explanation entailment" `Slow explanation_entailment;
    Alcotest.test_case "lpr branch hint valid" `Quick lpr_branch_hint_valid;
    Alcotest.test_case "lpr >= mis mostly" `Quick lpr_at_least_mis_often;
    Alcotest.test_case "residual extraction" `Quick residual_extraction;
    Alcotest.test_case "satisfied node bound zero" `Quick satisfied_node_bound_zero;
  ]

(* LP-infeasible residual with a silent BCP fixpoint: LPR must prune with
   the cap and give a usable explanation. *)
let lpr_infeasible_relaxation () =
  let b = Problem.Builder.create ~nvars:3 () in
  (* sum >= 2 and sum <= 1 over the same variables, invisible to BCP *)
  Problem.Builder.add_ge b [ 2, Lit.pos 0; 2, Lit.pos 1; 2, Lit.pos 2 ] 4;
  Problem.Builder.add_ge b [ 2, Lit.neg 0; 2, Lit.neg 1; 2, Lit.neg 2 ] 4;
  Problem.Builder.set_objective b [ 1, Lit.pos 0 ];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  (match Core.propagate engine with
  | Some _ -> Alcotest.fail "BCP should be silent here"
  | None -> ());
  let bound = lpr_fresh engine ~cap:42 in
  Alcotest.(check int) "cap returned" 42 bound.Lowerbound.Bound.value;
  Alcotest.(check bool) "explanation computable" true
    (match Lowerbound.Bound.omega_pl engine bound with _ -> true);
  (* and the instance really is unsatisfiable *)
  let o = Bsolo.Solver.solve problem in
  Alcotest.(check string) "unsat" "UNSATISFIABLE" (Bsolo.Outcome.status_name o.status)

let lgr_no_cost_instance () =
  (* all-zero objective: bounds must be 0 and never prune incorrectly *)
  let b = Problem.Builder.create ~nvars:4 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.pos 2; Lit.pos 3 ];
  Problem.Builder.set_objective b [];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  ignore (Core.propagate engine);
  List.iter
    (fun (name, compute) ->
      let v = (compute engine ~cap:10).Lowerbound.Bound.value in
      if v <> 0 then Alcotest.failf "%s: nonzero bound %d without costs" name v)
    methods

let suite =
  suite
  @ [
      Alcotest.test_case "lpr infeasible relaxation" `Quick lpr_infeasible_relaxation;
      Alcotest.test_case "lgr/mis/lpr with empty objective" `Quick lgr_no_cost_instance;
    ]

(* One persistent incremental context across a whole randomized search
   walk (decisions, conflicts, backjumps) must report the same bound as
   the independently solved residual LP at every comparison point, and
   must actually warm-start at least once across the walks. *)
let lpr_incremental_matches_legacy () =
  let warm_total = ref 0 in
  for seed = 0 to 40 do
    let problem =
      if seed mod 2 = 0 then Gen.problem seed else Gen.covering ~nvars:10 ~nclauses:14 seed
    in
    let engine = Core.create problem in
    if not (Core.root_unsat engine) then begin
      let cap = Problem.max_cost_sum problem + 1 in
      let inc = Lowerbound.Lpr.make engine in
      let rng = Random.State.make [| seed; 0x11c |] in
      let compare_here where =
        let warm = (Lowerbound.Lpr.compute_inc inc ~cap).Lowerbound.Bound.value in
        match residual_lp_bound engine ~cap with
        | Some oracle when oracle <> warm ->
          Alcotest.failf "seed %d (%s): residual LP %d <> incremental %d" seed where oracle warm
        | Some _ | None -> ()
      in
      compare_here "root";
      let rec walk fuel =
        if fuel > 0 then begin
          match Core.propagate engine with
          | Some ci ->
            (match Core.resolve_conflict engine ci with
            | Core.Root_conflict -> ()
            | Core.Backjump _ ->
              compare_here "after backjump";
              walk (fuel - 1))
          | None ->
            compare_here "at fixpoint";
            (match Core.next_branch_var engine with
            | None -> ()
            | Some v ->
              Core.decide engine (Lit.make v (Random.State.bool rng));
              walk (fuel - 1))
        end
      in
      walk 30;
      let reg = (Core.telemetry engine).Telemetry.Ctx.registry in
      warm_total :=
        !warm_total
        + Option.value ~default:0 (Telemetry.Registry.find_counter reg "lpr.warm_hits")
    end
  done;
  if !warm_total = 0 then Alcotest.fail "no warm-started re-solve across all walks"

(* Regression: a variable flipping value between two LB evaluations
   (True -> backjump -> False with no drain in between) reaches sync as a
   plain re-fix with unfixes = 0; the cached infeasibility certificate
   must NOT survive it, or a feasible node gets pruned with the cap. *)
let lpr_inc_flip_invalidates_infeasibility_cache () =
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_clause b [ Lit.pos 1; Lit.pos 2 ];
  Problem.Builder.add_clause b [ Lit.neg 1; Lit.neg 2 ];
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.neg 1 ];
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.neg 2 ];
  Problem.Builder.set_objective b [ 1, Lit.pos 1 ];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  let inc = Lowerbound.Lpr.make engine in
  let cap = 42 in
  (* under ~x0 the relaxation is infeasible: x1 <= 0, x2 <= 0, x1 + x2 >= 1 *)
  Core.decide engine (Lit.neg 0);
  let binf = Lowerbound.Lpr.compute_inc inc ~cap in
  Alcotest.(check int) "infeasible under ~x0" cap binf.Lowerbound.Bound.value;
  (* flip: x0 goes False -> Unknown -> True with no LB call in between *)
  Core.backjump_to engine 0;
  Core.decide engine (Lit.pos 0);
  let bflip = Lowerbound.Lpr.compute_inc inc ~cap in
  Alcotest.(check (option int))
    "feasible after flip matches the residual LP"
    (residual_lp_bound engine ~cap) (Some bflip.Lowerbound.Bound.value);
  Alcotest.(check bool) "stale cap not returned" true (bflip.Lowerbound.Bound.value < cap)

(* End-to-end: a full bsolo solve on the default configuration must
   warm-start the LP and land on the brute-force optimum. *)
let lpr_warm_end_to_end () =
  let solved = ref 0 and warm_hits = ref 0 in
  for seed = 0 to 8 do
    let problem = Gen.covering ~nvars:12 ~nclauses:16 seed in
    let tel = Telemetry.Ctx.create () in
    let options = { (Bsolo.Options.with_lb Bsolo.Options.Lpr) with telemetry = Some tel } in
    let ow = Bsolo.Solver.solve ~options problem in
    (match Bsolo.Exhaustive.optimum problem with
    | None ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d status" seed)
        "UNSATISFIABLE" (Bsolo.Outcome.status_name ow.status)
    | Some (_, cost) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d status" seed)
        "OPTIMAL" (Bsolo.Outcome.status_name ow.status);
      Alcotest.(check (option int))
        (Printf.sprintf "seed %d cost" seed)
        (Some cost) (Bsolo.Outcome.best_cost ow));
    incr solved;
    warm_hits :=
      !warm_hits
      + Option.value ~default:0
          (Telemetry.Registry.find_counter tel.Telemetry.Ctx.registry "lpr.warm_hits")
  done;
  if !solved > 0 && !warm_hits = 0 then
    Alcotest.fail "warm path never warm-started during full solves"

(* Every [reoptimize] counts once: min x0 + x1 + x2 s.t. 3x0 + 2x1 + 2x2
   >= 4 has the root optimum x0 = 1, x1 = 1/2, which violates the cover
   cut x1 + x2 >= 1; the root solve is cold and the re-solve after
   separating the cut is warm, in the same [compute_inc] call. *)
let lpr_counts_every_solve () =
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_ge b [ 3, Lit.pos 0; 2, Lit.pos 1; 2, Lit.pos 2 ] 4;
  Problem.Builder.set_objective b [ 1, Lit.pos 0; 1, Lit.pos 1; 1, Lit.pos 2 ];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  let tel = Core.telemetry engine in
  let cuts = { Cuts.pool = Cuts.Pool.create tel; mode = Cuts.Root } in
  let inc = Lowerbound.Lpr.make ~cuts engine in
  let bound = Lowerbound.Lpr.compute_inc inc ~cap:(Problem.max_cost_sum problem + 1) in
  Alcotest.(check int) "the cut lifts the bound to 2" 2 bound.Lowerbound.Bound.value;
  let count name =
    Option.value ~default:0 (Telemetry.Registry.find_counter tel.Telemetry.Ctx.registry name)
  in
  Alcotest.(check int) "two solves" 2 (count "simplex.calls");
  Alcotest.(check int) "one cold fall" 1 (count "lpr.cold_falls");
  Alcotest.(check int) "one warm hit" 1 (count "lpr.warm_hits")

let suite =
  suite
  @ [
      Alcotest.test_case "lpr incremental = legacy on walks" `Slow lpr_incremental_matches_legacy;
      Alcotest.test_case "lpr flip invalidates infeasibility cache" `Quick
        lpr_inc_flip_invalidates_infeasibility_cache;
      Alcotest.test_case "lpr warm end-to-end" `Quick lpr_warm_end_to_end;
      Alcotest.test_case "lpr counts every solve" `Quick lpr_counts_every_solve;
    ]

(* The list-based MIS procedure the prepared rows replaced, kept as an
   oracle: residual constraints from [Core.active_constraints], sorted
   per call. *)
module Mis_ref = struct
  let contribution engine (a : Core.active) =
    let weighted =
      List.map (fun (w, l) -> float_of_int (Core.cost_of_lit engine l), float_of_int w) a.aterms
    in
    let by_ratio (c1, w1) (c2, w2) = compare (c1 *. w2) (c2 *. w1) in
    let rec take need acc last_mu = function
      | [] -> acc, last_mu
      | (c, w) :: rest ->
        if need <= 0. then acc, last_mu
        else if w >= need then acc +. (c *. need /. w), c /. w
        else take (need -. w) (acc +. c) (c /. w) rest
    in
    take (float_of_int a.aresidual) 0. 0. (List.sort by_ratio weighted)

  (* value, Cert_bound multipliers, omega_pl *)
  let compute engine =
    let scored =
      List.map
        (fun a ->
          let c, mu = contribution engine a in
          c, mu, a)
        (Core.active_constraints engine)
    in
    let positive = List.filter (fun (c, _, _) -> c > 1e-9) scored in
    let ordered = List.sort (fun (c1, _, _) (c2, _, _) -> compare c2 c1) positive in
    let used = Hashtbl.create 64 in
    let independent (a : Core.active) =
      List.for_all (fun (_, l) -> not (Hashtbl.mem used (Lit.var l))) a.aterms
    in
    let select (total, chosen) (c, mu, (a : Core.active)) =
      if independent a then begin
        List.iter (fun (_, l) -> Hashtbl.replace used (Lit.var l) ()) a.aterms;
        total +. c, (a.acid, mu) :: chosen
      end
      else total, chosen
    in
    let total, chosen = List.fold_left select (0., []) ordered in
    let omega_pl =
      List.sort_uniq Lit.compare
        (List.concat_map (fun (cid, _) -> false_lits engine (Core.constr_of engine cid)) chosen)
    in
    Lowerbound.Bound.trusted_value total, chosen, omega_pl
end

(* One prepared MIS context across a randomized search walk (decisions,
   conflict backjumps, restarts to random levels, learned-database
   reductions, flips of the last decision) must agree exactly with the
   per-call oracle at every fixpoint: value, certificate cids and float
   multipliers, omega_pl.  As in the solver, the context is created at a
   random fixpoint of the walk, with decisions on the trail, so variables
   assigned at creation and unassigned later must reach it too.  A second
   call at the same fixpoint re-covers no row and gives the same bound. *)
let mis_matches_reference =
  let gen = QCheck2.Gen.(pair (int_bound 100_000) (int_bound 2)) in
  QCheck2.Test.make ~name:"prepared mis = list-based reference" ~count:150 gen
    (fun (seed, kind) ->
      let problem =
        match kind with
        | 0 -> Gen.planted seed
        | 1 -> Gen.planted ~nvars:24 ~nconstrs:40 ~max_arity:6 ~max_coeff:3 seed
        | _ -> Gen.covering ~nvars:14 ~nclauses:24 seed
      in
      let engine = Core.create problem in
      let rng = Random.State.make [| seed; 0x315 |] in
      let registry = (Core.telemetry engine).Telemetry.Ctx.registry in
      let rescored () =
        Option.value ~default:0 (Telemetry.Registry.find_counter registry "mis.rows_rescored")
      in
      match Core.propagate engine with
      | Some _ -> true
      | None ->
        let compared = ref 0 in
        let create_at = Random.State.int rng 12 in
        let mis = ref None in
        let check b =
          let value, chosen, omega_pl = Mis_ref.compute engine in
          if b.Lowerbound.Bound.value <> value then
            QCheck2.Test.fail_reportf "seed %d: value %d, reference %d" seed b.value value;
          (match Lazy.force b.cert with
          | Proof.Cert_bound got when got = chosen -> ()
          | _ -> QCheck2.Test.fail_reportf "seed %d: certificate differs" seed);
          if Lowerbound.Bound.omega_pl engine b <> omega_pl then
            QCheck2.Test.fail_reportf "seed %d: omega_pl differs" seed
        in
        let compare_here step =
          if Option.is_none !mis && step >= create_at then mis := Some (Lowerbound.Mis.create engine);
          match !mis with
          | None -> ()
          | Some mis ->
            incr compared;
            check (Lowerbound.Mis.compute mis);
            let before = rescored () in
            check (Lowerbound.Mis.compute mis);
            if rescored () <> before then
              QCheck2.Test.fail_reportf "seed %d: a repeated call re-covered %d rows" seed
                (rescored () - before)
        in
        let rec walk step fuel =
          if fuel > 0 && not (Core.root_unsat engine) then begin
            match Core.propagate engine with
            | Some ci -> (
              match Core.resolve_conflict engine ci with
              | Core.Root_conflict -> ()
              | Core.Backjump _ -> walk step (fuel - 1))
            | None -> (
              compare_here step;
              match List.rev (Core.decisions engine) with
              | last :: _ when Random.State.int rng 5 = 0 ->
                (* flip: undo the last decision and take its negation *)
                Core.backjump_to engine (Core.decision_level engine - 1);
                Core.decide engine (Lit.negate last);
                walk (step + 1) (fuel - 1)
              | _ ->
                if Random.State.int rng 6 = 0 then
                  Core.backjump_to engine (Random.State.int rng (Core.decision_level engine + 1));
                if Random.State.int rng 8 = 0 then Core.reduce_db engine;
                (match Core.next_branch_var engine with
                | None -> Core.backjump_to engine 0
                | Some v -> Core.decide engine (Lit.make v (Random.State.bool rng)));
                walk (step + 1) (fuel - 1))
          end
        in
        walk 0 60;
        !compared > 0)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest mis_matches_reference ]

(* The mark-based explanations against their list-based definition, at
   random fixpoints of a search walk: for each of MIS, LGR and LPR with
   tree separation (so cut rows join the explanation), omega_pl must be
   [List.sort_uniq Lit.compare (List.concat_map ...)] over the bound's
   rows, filtered by [keep], and omega_bc that merged with the negated
   true cost literals.  Every fixpoint builds several explanations on one
   engine, so a mark left set or a literal emitted out of order shows. *)
let omega_matches_reference =
  let gen = QCheck2.Gen.(pair (int_bound 100_000) (int_bound 2)) in
  QCheck2.Test.make ~name:"mark-based omega = list-based reference" ~count:100 gen
    (fun (seed, kind) ->
      let problem =
        match kind with
        | 0 -> Gen.planted seed
        | 1 -> Gen.planted ~nvars:24 ~nconstrs:40 ~max_arity:6 ~max_coeff:3 seed
        | _ -> Gen.covering ~nvars:14 ~nclauses:24 seed
      in
      let engine = Core.create problem in
      let rng = Random.State.make [| seed; 0x0b0c |] in
      let cap = Problem.max_cost_sum problem + 1 in
      let reference (b : Lowerbound.Bound.t) =
        let r = Lazy.force b.omega_rows in
        let pl =
          List.concat_map (fun cid -> false_lits engine (Core.constr_of engine cid)) r.cids
          @ List.concat_map (false_lits engine) r.cuts
          |> List.sort_uniq Lit.compare
          |> List.filter (fun l -> match r.keep with None -> true | Some keep -> keep l)
        in
        let pp = List.map Lit.negate (Core.true_cost_lits engine) in
        pl, List.sort_uniq Lit.compare (pp @ pl)
      in
      let bounds () =
        let tel = Core.telemetry engine in
        let cuts = { Cuts.pool = Cuts.Pool.create tel; mode = Cuts.Tree } in
        [
          "mis", Lowerbound.Mis.compute (Lowerbound.Mis.create engine);
          "lgr", Lowerbound.Lgr.compute engine ~cap;
          "lpr", Lowerbound.Lpr.compute_inc (Lowerbound.Lpr.make ~cuts engine) ~cap;
        ]
      in
      let check step =
        List.iter
          (fun (name, b) ->
            let pl, bc = reference b in
            if Lowerbound.Bound.omega_pl engine b <> pl then
              QCheck2.Test.fail_reportf "seed %d step %d: %s omega_pl differs" seed step name;
            if Lowerbound.Bound.omega_bc engine b <> bc then
              QCheck2.Test.fail_reportf "seed %d step %d: %s omega_bc differs" seed step name)
          (bounds ())
      in
      match Core.propagate engine with
      | Some _ -> true
      | None ->
        let rec walk step fuel =
          if fuel > 0 && not (Core.root_unsat engine) then begin
            match Core.propagate engine with
            | Some ci -> (
              match Core.resolve_conflict engine ci with
              | Core.Root_conflict -> ()
              | Core.Backjump _ -> walk step (fuel - 1))
            | None -> (
              check step;
              if Random.State.int rng 6 = 0 then
                Core.backjump_to engine (Random.State.int rng (Core.decision_level engine + 1));
              match Core.next_branch_var engine with
              | None -> Core.backjump_to engine 0
              | Some v ->
                Core.decide engine (Lit.make v (Random.State.bool rng));
                walk (step + 1) (fuel - 1))
          end
        in
        walk 0 30;
        true)

let suite = suite @ [ QCheck_alcotest.to_alcotest omega_matches_reference ]
