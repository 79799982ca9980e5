open Pbo
module Core = Engine.Solver_core

(* Drive a search to a conflict, then check the derived PB resolvent. *)
let conflicts_with_resolvents problem seed k =
  let engine = Core.create problem in
  let rng = Random.State.make [| seed; 0xcafe |] in
  let found = ref [] in
  let rec go fuel =
    if fuel > 0 && List.length !found < k && not (Core.root_unsat engine) then begin
      match Core.propagate engine with
      | Some ci ->
        (match Core.derive_pb_resolvent engine ci with
        | Some r -> found := (r, Core.decision_level engine) :: !found
        | None -> ());
        (match Core.resolve_conflict engine ci with
        | Core.Root_conflict -> ()
        | Core.Backjump _ -> go (fuel - 1))
      | None ->
        (match Core.next_branch_var engine with
        | None -> ()
        | Some v ->
          Core.decide engine (Lit.make v (Random.State.bool rng));
          go (fuel - 1))
    end
  in
  go 300;
  engine, !found

(* Soundness: the resolvent must be entailed by the problem (checked by
   enumeration on satisfaction instances, where no cost-context cuts are
   involved). *)
let resolvent_entailed () =
  for seed = 0 to 50 do
    let problem = Gen.problem ~config:{ Gen.default with with_objective = false } seed in
    let _, found = conflicts_with_resolvents problem seed 5 in
    let nvars = Problem.nvars problem in
    if nvars <= 10 then
      for mask = 0 to (1 lsl nvars) - 1 do
        let m = Model.of_array (Array.init nvars (fun v -> (mask lsr v) land 1 = 1)) in
        if Model.satisfies problem m then
          List.iter
            (fun (r, _) ->
              if not (Constr.satisfied_by (Model.lit_true m) r) then
                Alcotest.failf "seed %d: resolvent %s not entailed" seed (Constr.to_string r))
            found
      done
  done

(* The resolvent must be violated at the conflicting state — checked
   inside derive (it returns None otherwise); here we check it is not
   trivially weak: it must mention at least one literal. *)
let resolvent_nontrivial () =
  let count = ref 0 in
  for seed = 0 to 50 do
    let problem = Gen.problem seed in
    let _, found = conflicts_with_resolvents problem seed 5 in
    List.iter
      (fun (r, _) ->
        incr count;
        if Constr.size r = 0 then Alcotest.fail "empty resolvent")
      found
  done;
  if !count = 0 then Alcotest.fail "no resolvents were derived at all"

(* A textbook cutting-plane case.  After deciding ~x1, the first
   constraint implies x0, violating the second.  The raw PB sum cancels
   x0 but loses the conflict (2x1 + 2x2 >= 2 has slack 0), so the
   derivation must weaken the reason to its certificate clause
   (x0 | x1) and produce a still-violated resolvent without x0. *)
let hand_resolution () =
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_ge b [ 2, Lit.pos 0; 1, Lit.pos 1; 1, Lit.pos 2 ] 2;
  Problem.Builder.add_ge b [ 2, Lit.neg 0; 1, Lit.pos 1; 1, Lit.pos 2 ] 2;
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  (match Core.propagate engine with
  | Some _ -> Alcotest.fail "no conflict expected at the root"
  | None -> ());
  (* deciding ~x1 makes the first constraint imply x0 (and x2), which
     violates the second one *)
  Core.decide engine (Lit.neg 1);
  match Core.propagate engine with
  | None -> Alcotest.fail "conflict expected"
  | Some ci ->
    (match Core.derive_pb_resolvent engine ci with
    | None -> Alcotest.fail "resolvent expected"
    | Some r ->
      (* expected: 2x1 + x2 >= 2 via the clause-weakened resolution *)
      Alcotest.(check bool) "violated now" true (Constr.slack_under (Core.value_lit engine) r < 0);
      Alcotest.(check bool) "x0 eliminated" true
        (Constr.fold_lits (fun l acc -> acc && Lit.var l <> 0) r true);
      for mask = 0 to 7 do
        let m = Model.of_array (Array.init 3 (fun v -> (mask lsr v) land 1 = 1)) in
        if Model.satisfies problem m && not (Constr.satisfied_by (Model.lit_true m) r) then
          Alcotest.fail "hand resolvent not entailed"
      done)

(* Galena with the resolvent learning must stay exact. *)
let galena_cp = { Bsolo.Options.galena with learning = Bsolo.Options.Cutting_planes }

let galena_still_exact () =
  for seed = 200 to 260 do
    let problem = Gen.problem seed in
    let reference = Bsolo.Exhaustive.optimum problem in
    let o = Bsolo.Solver.solve ~options:galena_cp problem in
    match reference, Bsolo.Outcome.best_cost o with
    | None, None -> ()
    | Some (_, opt), Some c ->
      if c <> opt then Alcotest.failf "seed %d: %d <> %d" seed c opt
    | None, Some _ | Some _, None -> Alcotest.failf "seed %d: status" seed
  done

let suite =
  [
    Alcotest.test_case "resolvent entailed" `Slow resolvent_entailed;
    Alcotest.test_case "resolvent nontrivial" `Quick resolvent_nontrivial;
    Alcotest.test_case "hand resolution" `Quick hand_resolution;
    Alcotest.test_case "galena exact with resolvents" `Slow galena_still_exact;
  ]

(* The full cutting-planes configuration stays exact too. *)
let galena_cp_exact_on_covering () =
  for seed = 300 to 340 do
    let problem = Gen.covering seed in
    let reference = Bsolo.Exhaustive.optimum problem in
    let o = Bsolo.Solver.solve ~options:galena_cp problem in
    match reference, Bsolo.Outcome.best_cost o with
    | None, None -> ()
    | Some (_, opt), Some c -> if c <> opt then Alcotest.failf "seed %d: %d <> %d" seed c opt
    | None, Some _ | Some _, None -> Alcotest.failf "seed %d: status" seed
  done

let suite =
  suite @ [ Alcotest.test_case "galena-cp exact on covering" `Slow galena_cp_exact_on_covering ]

(* Coefficients near the parser's limit make the resolvent multipliers
   themselves reach 2^40: the resolution must give up rather than wrap
   around, and the galena engine (with and without the resolvents) must
   still find the exact optimum.  Each constraint needs a fifth to a half
   of its weight, so conflicts, and so resolution steps, are common. *)
let near_limit_problem seed =
  let rng = Random.State.make [| seed; 0x2545f491 |] in
  let nvars = 10 in
  let b = Problem.Builder.create ~nvars () in
  let half = Constr.coefficient_limit / 2 in
  for _ = 1 to 10 do
    let arity = 3 + Random.State.int rng 2 in
    let terms =
      List.init arity (fun _ -> half + Random.State.full_int rng half, Gen.lit_of rng nvars)
    in
    let total = List.fold_left (fun acc (c, _) -> acc + c) 0 terms in
    Problem.Builder.add_ge b terms ((total / 5) + Random.State.full_int rng (total / 3))
  done;
  Problem.Builder.set_objective b
    (List.init nvars (fun v -> 1 + Random.State.int rng 6, Lit.pos v));
  Problem.Builder.build b

let galena_near_limit_exact =
  QCheck2.Test.make ~name:"galena exact with coefficients near the limit" ~count:100
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let problem = near_limit_problem seed in
      let reference = Option.map snd (Bsolo.Exhaustive.optimum problem) in
      List.for_all
        (fun cutting_planes ->
          let options = if cutting_planes then galena_cp else Bsolo.Options.galena in
          let o = Bsolo.Solver.solve ~options problem in
          let cost = Bsolo.Outcome.best_cost o in
          if cost <> reference then
            QCheck2.Test.fail_reportf "seed %d (cutting_planes %b): galena %s, exhaustive %s"
              seed cutting_planes
              (Option.fold ~none:"-" ~some:string_of_int cost)
              (Option.fold ~none:"-" ~some:string_of_int reference);
          true)
        [ false; true ])

let suite = suite @ [ QCheck_alcotest.to_alcotest galena_near_limit_exact ]
