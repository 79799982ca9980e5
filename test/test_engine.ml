open Pbo
module Core = Engine.Solver_core

(* --- propagation correctness against first principles ------------------- *)

(* After a propagation fixpoint with no conflict, no constraint may force
   an unassigned literal (a_i > slack) and none may be violated. *)
let fixpoint_is_complete engine =
  let ok = ref true in
  Core.iter_constraints engine (fun ~learned:_ c ->
      let slack = Constr.slack_under (Core.value_lit engine) c in
      if slack < 0 then ok := false
      else
        Array.iter
          (fun { Constr.coeff; lit } ->
            if coeff > slack && Value.equal (Core.value_lit engine lit) Value.Unknown then
              ok := false)
          (Constr.terms c));
  !ok

(* Incremental slacks must agree with recomputation from the values. *)
let slacks_consistent engine =
  let ok = ref true in
  (* [iter_constraints] has no ids; recompute via actives + full scan *)
  Core.iter_constraints engine (fun ~learned:_ _ -> ());
  let n = ref 0 in
  Core.iter_constraints engine (fun ~learned:_ _ -> incr n);
  for ci = 0 to !n - 1 do
    let c = Core.constr_of engine ci in
    if Core.slack_of engine ci <> Constr.slack_under (Core.value_lit engine) c then ok := false
  done;
  !ok

let propagation_invariants () =
  for seed = 0 to 60 do
    let problem = Gen.problem seed in
    let engine = Core.create problem in
    if not (Core.root_unsat engine) then begin
      let rng = Random.State.make [| seed; 99 |] in
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 30 do
        incr steps;
        match Core.propagate engine with
        | Some _ -> continue := false  (* conflict: stop this walk *)
        | None ->
          if not (fixpoint_is_complete engine) then
            Alcotest.failf "seed %d: fixpoint incomplete" seed;
          if not (slacks_consistent engine) then
            Alcotest.failf "seed %d: slacks diverged" seed;
          (match Core.next_branch_var engine with
          | None -> continue := false
          | Some v ->
            Core.decide engine (Lit.make v (Random.State.bool rng)))
      done
    end
  done

let backjump_restores_state () =
  for seed = 0 to 40 do
    let problem = Gen.problem seed in
    let engine = Core.create problem in
    if not (Core.root_unsat engine) then begin
      match Core.propagate engine with
      | Some _ -> ()
      | None ->
        let assigned0 = Core.num_assigned engine in
        let rng = Random.State.make [| seed; 77 |] in
        let rec dive n =
          if n > 0 then begin
            match Core.next_branch_var engine with
            | None -> ()
            | Some v ->
              Core.decide engine (Lit.make v (Random.State.bool rng));
              (match Core.propagate engine with
              | None -> dive (n - 1)
              | Some _ -> ())
          end
        in
        dive 4;
        Core.backjump_to engine 0;
        if Core.num_assigned engine <> assigned0 then
          Alcotest.failf "seed %d: trail not restored" seed;
        if not (slacks_consistent engine) then
          Alcotest.failf "seed %d: slacks wrong after backjump" seed
    end
  done

(* --- learned-clause soundness ------------------------------------------- *)

(* On satisfaction instances every learned clause is entailed by the
   problem: check against all models by enumeration. *)
let learned_clauses_entailed () =
  for seed = 0 to 30 do
    let problem = Gen.problem ~config:{ Gen.default with with_objective = false } seed in
    (* run an engine search manually to collect learned clauses *)
    let engine = Core.create problem in
    let rec cdcl fuel =
      if fuel > 0 && not (Core.root_unsat engine) then begin
        match Core.propagate engine with
        | Some ci ->
          (match Core.resolve_conflict engine ci with
          | Core.Root_conflict -> ()
          | Core.Backjump _ -> cdcl (fuel - 1))
        | None ->
          (match Core.next_branch_var engine with
          | None -> ()
          | Some v ->
            Core.decide engine (Lit.pos v);
            cdcl (fuel - 1))
      end
    in
    cdcl 200;
    let learned = ref [] in
    Core.iter_constraints engine (fun ~learned:l c -> if l then learned := c :: !learned);
    let nvars = Problem.nvars problem in
    if nvars <= 12 then
      for mask = 0 to (1 lsl nvars) - 1 do
        let m = Model.of_array (Array.init nvars (fun v -> (mask lsr v) land 1 = 1)) in
        if Model.satisfies problem m then
          List.iter
            (fun c ->
              if not (Constr.satisfied_by (Model.lit_true m) c) then
                Alcotest.failf "seed %d: learned clause not entailed" seed)
            !learned
      done
  done

(* --- cost bookkeeping ----------------------------------------------------- *)

let path_cost_tracks_assignment () =
  for seed = 0 to 30 do
    let problem = Gen.covering seed in
    let engine = Core.create problem in
    let rng = Random.State.make [| seed; 5 |] in
    let expected () =
      match Problem.objective problem with
      | None -> 0
      | Some o ->
        Array.fold_left
          (fun acc (ct : Problem.cost_term) ->
            match Core.value_lit engine ct.lit with
            | Value.True -> acc + ct.cost
            | Value.False | Value.Unknown -> acc)
          0 o.cost_terms
    in
    let rec walk n =
      if n > 0 then begin
        match Core.propagate engine with
        | Some _ -> ()
        | None ->
          if Core.path_cost engine <> expected () then
            Alcotest.failf "seed %d: path cost mismatch" seed;
          (match Core.next_branch_var engine with
          | None -> ()
          | Some v ->
            Core.decide engine (Lit.make v (Random.State.bool rng));
            walk (n - 1))
      end
    in
    walk 6;
    Core.backjump_to engine 0;
    if Core.path_cost engine <> expected () then Alcotest.failf "seed %d: path after reset" seed
  done

(* --- dynamic constraints --------------------------------------------------- *)

let dynamic_constraint_propagates () =
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  ignore (Core.propagate engine);
  (* force x0: add unit clause dynamically *)
  (match Constr.clause [ Lit.pos 0 ] with
  | Constr.Constr c ->
    (match Core.add_constraint_dynamic engine c with
    | None -> ()
    | Some _ -> Alcotest.fail "unit clause should not conflict")
  | Constr.Trivial_true | Constr.Trivial_false -> Alcotest.fail "clause");
  ignore (Core.propagate engine);
  Alcotest.(check bool) "x0 forced" true
    (Value.equal (Core.value_var engine 0) Value.True)

let dynamic_conflicting_constraint () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  ignore (Core.propagate engine);
  Core.decide engine (Lit.pos 0);
  ignore (Core.propagate engine);
  (* now add a constraint violated by x0=1 *)
  match Constr.clause [ Lit.neg 0 ] with
  | Constr.Constr c ->
    (match Core.add_constraint_dynamic engine c with
    | Some ci ->
      (match Core.resolve_conflict engine ci with
      | Core.Backjump _ ->
        ignore (Core.propagate engine);
        Alcotest.(check bool) "x0 now false" true
          (Value.equal (Core.value_var engine 0) Value.False)
      | Core.Root_conflict -> Alcotest.fail "still satisfiable")
    | None -> Alcotest.fail "should conflict")
  | Constr.Trivial_true | Constr.Trivial_false -> Alcotest.fail "clause"

(* --- cut rows ----------------------------------------------------------------- *)

let constr_of = function
  | Constr.Constr c -> c
  | Constr.Trivial_true | Constr.Trivial_false -> Alcotest.fail "trivial cut"

let invariant where engine =
  match Core.check_invariants engine with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" where e

(* Objective 6x0 + 4x1 + 2x2 + 3x3.  Its cut [sum <= r] is a row while
   it does not saturate; excluding x3 leaves 6x0 + 4x1 + 2x2, whose
   normal form 3~x0 + 2~x1 + ~x2 is the objective's over the factor 2.
   A saturated cut is not the objective's normal form minus some terms
   over one factor, nor is any cut of a problem without objective: those
   are plain constraints.  Each case must leave the same trail as the
   same cut added with [add_constraint_dynamic]. *)
let cut_rows_and_plain_cuts () =
  let costs = [ 6, Lit.pos 0; 4, Lit.pos 1; 2, Lit.pos 2; 3, Lit.pos 3 ] in
  let build objective =
    let b = Problem.Builder.create ~nvars:5 () in
    Problem.Builder.add_clause b [ Lit.pos 4; Lit.neg 3 ];
    if objective then Problem.Builder.set_objective b costs;
    Problem.Builder.build b
  in
  let objective = Constr.family costs in
  let without_x3 = Constr.family_without objective (fun v -> v = 3) in
  let pair objective =
    let p = build objective in
    Core.create p, Core.create p
  in
  let same where (a, b) =
    invariant where a;
    invariant where b;
    if Core.trail a <> Core.trail b then Alcotest.failf "%s: trails differ" where
  in
  let add where (a, b) ?row c ~expect_row =
    let ra = Core.add_constraint_dynamic a c in
    let row, rb = Core.add_cut b ?row c in
    if (row <> None) <> expect_row then
      Alcotest.failf "%s: %s" where (if expect_row then "not a row" else "a row");
    if (ra = None) <> (rb = None) then Alcotest.failf "%s: conflict verdicts differ" where;
    ignore (Core.propagate a);
    ignore (Core.propagate b);
    same where (a, b);
    row
  in
  (* 6 - 2 = 4 of the x3-less costs may be paid: [3~x0 + 2~x1 + ~x2 >= 4],
     and deciding x3 (an excluded term's literal) leaves the row's sum
     alone; x1 then leaves slack 0 and forces ~x0 and ~x2 *)
  let engines = pair true in
  let row =
    add "x3-less row" engines (constr_of (Constr.family_at without_x3 4)) ~expect_row:true
  in
  List.iter
    (fun l ->
      Core.decide (fst engines) l;
      Core.decide (snd engines) l;
      ignore (Core.propagate (fst engines));
      ignore (Core.propagate (snd engines));
      same "after a decision" engines)
    [ Lit.pos 3; Lit.pos 1 ];
  if not (Value.equal (Core.value_var (snd engines) 0) Value.False) then
    Alcotest.fail "the row did not force ~x0";
  Core.backjump_to (fst engines) 1;
  Core.backjump_to (snd engines) 1;
  same "after popping x1" engines;
  Core.backjump_to (fst engines) 0;
  Core.backjump_to (snd engines) 0;
  same "after popping x3" engines;
  (* the objective's own cut at 9 is a row; at 13 - 10 = 3 < 6 it saturates *)
  let knapsack r = constr_of (Constr.family_at objective r) in
  ignore (add "knapsack row" engines ?row (knapsack 9) ~expect_row:true);
  ignore (add "saturated cut" engines ?row (knapsack 12) ~expect_row:false);
  (* no objective: no cut is a row *)
  ignore (add "no objective" (pair false) (knapsack 9) ~expect_row:false)

let reduce_db_preserves_solving () =
  (* run bsolo with DB reduction on and check agreement with brute force *)
  for seed = 50 to 70 do
    let problem = Gen.problem seed in
    let reference = Bsolo.Exhaustive.optimum problem in
    let engine_opts = { Bsolo.Options.default with reduce_db = true } in
    let outcome = Bsolo.Solver.solve ~options:engine_opts problem in
    match reference, outcome.best with
    | None, None -> ()
    | Some (_, opt), Some (_, got) ->
      if opt <> got then Alcotest.failf "seed %d: reduce_db changed optimum" seed
    | None, Some _ | Some _, None -> Alcotest.failf "seed %d: status mismatch" seed
  done

let suite =
  [
    Alcotest.test_case "propagation invariants" `Slow propagation_invariants;
    Alcotest.test_case "backjump restores state" `Quick backjump_restores_state;
    Alcotest.test_case "learned clauses entailed" `Slow learned_clauses_entailed;
    Alcotest.test_case "path cost tracking" `Quick path_cost_tracks_assignment;
    Alcotest.test_case "dynamic constraint propagates" `Quick dynamic_constraint_propagates;
    Alcotest.test_case "dynamic conflicting constraint" `Quick dynamic_conflicting_constraint;
    Alcotest.test_case "reduce_db preserves solving" `Quick reduce_db_preserves_solving;
    Alcotest.test_case "cut rows and plain cuts" `Quick cut_rows_and_plain_cuts;
  ]

let printers_do_not_raise () =
  let p = Gen.covering 4 in
  ignore (Format.asprintf "%a" Problem.pp p);
  Array.iter (fun c -> ignore (Constr.to_string c)) (Problem.constraints p);
  let o = Bsolo.Solver.solve p in
  match o.best with
  | Some (m, _) -> ignore (Format.asprintf "%a" Model.pp m)
  | None -> Alcotest.fail "expected a model"

let default_phase_steers_first_dive () =
  (* an unconstrained variable follows its default phase at decision time *)
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  let p = Problem.Builder.build b in
  let engine = Core.create p in
  Core.set_default_phase engine 0 true;
  ignore (Core.propagate engine);
  (match Core.next_branch_var engine with
  | Some v -> Core.decide engine (Lit.make v (Core.phase_hint engine v))
  | None -> Alcotest.fail "a variable should be unassigned");
  (* whichever variable was picked, its hint was respected *)
  Alcotest.(check bool) "some assignment made" true (Core.num_assigned engine >= 1)

let suite =
  suite
  @ [
      Alcotest.test_case "printers do not raise" `Quick printers_do_not_raise;
      Alcotest.test_case "default phase api" `Quick default_phase_steers_first_dive;
    ]
