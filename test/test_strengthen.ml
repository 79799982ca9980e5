open Pbo

(* Strengthening must preserve the model set exactly. *)
let model_equivalence () =
  for seed = 0 to 80 do
    let problem = Gen.problem seed in
    if Problem.nvars problem <= 10 then begin
      let problem', _ = Bsolo.Strengthen.apply problem in
      let nvars = Problem.nvars problem in
      Alcotest.(check int) "nvars preserved" nvars (Problem.nvars problem');
      for mask = 0 to (1 lsl nvars) - 1 do
        let m = Model.of_array (Array.init nvars (fun v -> (mask lsr v) land 1 = 1)) in
        if Model.satisfies problem m <> Model.satisfies problem' m then
          Alcotest.failf "seed %d: model set changed at mask %d" seed mask;
        if Model.satisfies problem m && Model.cost problem m <> Model.cost problem' m then
          Alcotest.failf "seed %d: cost changed" seed
      done
    end
  done

let strengthens_implications () =
  (* x0 -> x1 and x0 -> x2, and C: x1 + x2 >= 1.  Probing x0 forces both
     literals, over-satisfying C by 1: C becomes x1 + x2 + ~x0 >= 2. *)
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.pos 2 ];
  Problem.Builder.add_ge b [ 1, Lit.pos 1; 1, Lit.pos 2 ] 1;
  let p = Problem.Builder.build b in
  let p', report = Bsolo.Strengthen.apply p in
  Alcotest.(check bool) "strengthened something" true (report.strengthened >= 1);
  (* equivalence spot check *)
  for mask = 0 to 7 do
    let m = Model.of_array (Array.init 3 (fun v -> (mask lsr v) land 1 = 1)) in
    Alcotest.(check bool) "same models" (Model.satisfies p m) (Model.satisfies p' m)
  done

let reports_fixed_literals () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.neg 1 ];
  let p = Problem.Builder.build b in
  let _, report = Bsolo.Strengthen.apply p in
  Alcotest.(check bool) "found the failed literal" true (report.fixed_literals >= 1)

let optimum_preserved_under_solving () =
  for seed = 0 to 40 do
    let problem = Gen.covering seed in
    let reference = Bsolo.Exhaustive.optimum problem in
    let on = Bsolo.Solver.solve ~options:{ Bsolo.Options.default with constraint_strengthening = true } problem in
    let off = Bsolo.Solver.solve ~options:{ Bsolo.Options.default with constraint_strengthening = false } problem in
    match reference, Bsolo.Outcome.best_cost on, Bsolo.Outcome.best_cost off with
    | None, None, None -> ()
    | Some (_, opt), Some c1, Some c2 ->
      if c1 <> opt || c2 <> opt then Alcotest.failf "seed %d: optimum changed" seed
    | _, _, _ -> Alcotest.failf "seed %d: status mismatch" seed
  done

let empty_problem () =
  let p = Problem.Builder.build (Problem.Builder.create ()) in
  let p', report = Bsolo.Strengthen.apply p in
  Alcotest.(check int) "nothing to do" 0 report.strengthened;
  Alcotest.(check int) "no vars" 0 (Problem.nvars p')

(* The quadratic probing procedure [Strengthen] replaced, kept as an
   oracle: after every successful probe it rescans every constraint whose
   variables exclude the probe's.  [Strengthen.apply] must produce the
   identical problem and report. *)
module Strengthen_ref = struct
  module Core = Engine.Solver_core

  let probe_all problem =
    let engine = Core.create problem in
    let m = Array.length (Problem.constraints problem) in
    let best = Array.make m None in
    let fixed = ref [] in
    let vars_of =
      Array.map
        (fun c -> Constr.fold_lits (fun l acc -> Lit.var l :: acc) c [])
        (Problem.constraints problem)
    in
    (match Core.propagate engine with
    | Some _ -> ()
    | None ->
      let record_surpluses probe =
        for ci = 0 to m - 1 do
          if not (List.mem (Lit.var probe) vars_of.(ci)) then begin
            let c = Core.constr_of engine ci in
            let true_weight =
              Array.fold_left
                (fun acc { Constr.coeff; lit } ->
                  match Core.value_lit engine lit with
                  | Value.True -> acc + coeff
                  | Value.False | Value.Unknown -> acc)
                0 (Constr.terms c)
            in
            let surplus = true_weight - Constr.degree c in
            if surplus >= 1 then begin
              match best.(ci) with
              | Some (_, s) when s >= surplus -> ()
              | Some _ | None -> best.(ci) <- Some (probe, surplus)
            end
          end
        done
      in
      let nvars = Core.nvars engine in
      let v = ref 0 in
      while !v < nvars && not (Core.root_unsat engine) do
        let try_probe positive =
          if Value.equal (Core.value_var engine !v) Value.Unknown && not (Core.root_unsat engine)
          then begin
            let probe = Lit.make !v positive in
            Core.decide engine probe;
            match Core.propagate engine with
            | Some _ ->
              Core.backjump_to engine 0;
              fixed := Lit.negate probe :: !fixed;
              (match Constr.clause [ Lit.negate probe ] with
              | Constr.Constr c ->
                (match Core.add_constraint_dynamic engine c with
                | None ->
                  (match Core.propagate engine with
                  | None -> ()
                  | Some ci -> ignore (Core.resolve_conflict engine ci))
                | Some ci -> ignore (Core.resolve_conflict engine ci))
              | Constr.Trivial_true | Constr.Trivial_false -> ())
            | None ->
              record_surpluses probe;
              Core.backjump_to engine 0
          end
        in
        try_probe true;
        try_probe false;
        incr v
      done);
    best, !fixed

  let apply problem =
    if Problem.trivially_unsat problem || Problem.nvars problem = 0 then problem, (0, 0)
    else begin
      let best, fixed = probe_all problem in
      let strengthened = ref 0 in
      let b = Problem.Builder.create ~nvars:(Problem.nvars problem) () in
      Array.iteri
        (fun ci c ->
          let raw =
            Array.to_list (Array.map (fun t -> t.Constr.coeff, t.Constr.lit) (Constr.terms c))
          in
          match best.(ci) with
          | None -> Problem.Builder.add_norm b (Constr.Constr c)
          | Some (probe, surplus) ->
            incr strengthened;
            Problem.Builder.add_ge b ((surplus, Lit.negate probe) :: raw) (Constr.degree c + surplus))
        (Problem.constraints problem);
      List.iter (fun l -> Problem.Builder.add_clause b [ l ]) fixed;
      (match Problem.objective problem with
      | None -> ()
      | Some o ->
        Problem.Builder.set_objective b ~offset:o.offset
          (Array.to_list (Array.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) o.cost_terms)));
      Problem.Builder.build b, (!strengthened, List.length fixed)
    end
end

(* [Strengthen.apply] against the oracle; returns the report. *)
let check_against_ref name problem =
  let p', (r : Bsolo.Strengthen.report) = Bsolo.Strengthen.apply problem in
  let q', (strengthened, fixed) = Strengthen_ref.apply problem in
  Alcotest.(check int) (name ^ ": strengthened") strengthened r.strengthened;
  Alcotest.(check int) (name ^ ": fixed literals") fixed r.fixed_literals;
  if p' <> q' then
    Alcotest.failf "%s: strengthened problem differs@.got:@.%a@.want:@.%a" name Problem.pp p'
      Problem.pp q';
  r

let matches_reference () =
  let strengthened = ref 0 and fixed = ref 0 in
  let tally name problem =
    let r = check_against_ref name problem in
    strengthened := !strengthened + r.strengthened;
    fixed := !fixed + r.fixed_literals
  in
  for seed = 0 to 150 do
    tally (Printf.sprintf "problem %d" seed) (Gen.problem seed);
    tally (Printf.sprintf "planted %d" seed) (Gen.planted seed);
    tally (Printf.sprintf "clausal %d" seed)
      (Gen.planted ~nvars:20 ~nconstrs:50 ~max_arity:3 ~max_coeff:1 seed);
    tally (Printf.sprintf "covering %d" seed) (Gen.covering ~nvars:14 ~nclauses:24 seed)
  done;
  (* wide rows, where one probe reaches a row through many of its
     occurrences: acc capacity rows over every task (the crowded 8-slot
     ones with failed literals too), and planted rows of up to 50 terms *)
  for seed = 0 to 9 do
    tally (Printf.sprintf "acc %d" seed)
      (Benchgen.Acc.generate
         ~params:{ Benchgen.Acc.default with tasks = 45; slack = seed mod 3 }
         seed);
    tally (Printf.sprintf "crowded acc %d" seed)
      (Benchgen.Acc.generate
         ~params:{ Benchgen.Acc.default with tasks = 40; slots = 8; conflicts = 200 }
         seed)
  done;
  for seed = 0 to 30 do
    tally (Printf.sprintf "wide planted %d" seed)
      (Gen.planted ~nvars:60 ~nconstrs:25 ~max_arity:50 ~max_coeff:9 seed)
  done;
  (* the comparison means something only if both paths are exercised *)
  Alcotest.(check bool) "some constraints strengthened" true (!strengthened > 0);
  Alcotest.(check bool) "some literals fixed" true (!fixed > 0)

let has_constraint problem terms degree =
  let b = Problem.Builder.create ~nvars:(Problem.nvars problem) () in
  Problem.Builder.add_ge b terms degree;
  let want = (Problem.Builder.build b).constraints.(0) in
  Array.exists (Constr.equal want) (Problem.constraints problem)

(* C: x0 + x1 >= 1 with both literals fixed true at the root has surplus
   1 before any probe.  The first foreign probe, x2, propagates nothing
   into C and must still be recorded for it. *)
let over_satisfied_at_root () =
  let b = Problem.Builder.create ~nvars:4 () in
  Problem.Builder.add_clause b [ Lit.pos 0 ];
  Problem.Builder.add_clause b [ Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.pos 2; Lit.pos 3 ];
  let p = Problem.Builder.build b in
  ignore (check_against_ref "over-satisfied at root" p);
  let p', _ = Bsolo.Strengthen.apply p in
  Alcotest.(check bool) "C gets ~x2" true
    (has_constraint p' [ 1, Lit.pos 0; 1, Lit.pos 1; 1, Lit.neg 2 ] 2)

(* x0 fails (x0 -> x1, x0 -> ~x1), which fixes ~x0 at the root and
   over-satisfies C: x4 + ~x0 >= 1 (x4 is a unit).  No later probe
   propagates into C, so only a root set recomputed after the failed
   literal lets x1, the next probe, strengthen it. *)
let failed_literal_changes_root () =
  let b = Problem.Builder.create ~nvars:5 () in
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.neg 1 ];
  Problem.Builder.add_clause b [ Lit.pos 4 ];
  Problem.Builder.add_clause b [ Lit.pos 4; Lit.neg 0 ];
  Problem.Builder.add_clause b [ Lit.pos 2; Lit.pos 3 ];
  let p = Problem.Builder.build b in
  let r = check_against_ref "failed literal" p in
  Alcotest.(check int) "x0 fixed" 1 r.fixed_literals;
  let p', _ = Bsolo.Strengthen.apply p in
  Alcotest.(check bool) "C gets ~x1" true
    (has_constraint p' [ 1, Lit.pos 4; 1, Lit.neg 0; 1, Lit.neg 1 ] 2)

(* Two failed literals, x0 (x0 -> x1, x0 -> ~x1) and x2 (x2 -> x3,
   x2 -> ~x3), fix ~x0 and then ~x2 at the root.  R: ~x0 + ~x2 + x5 >= 1
   reaches surplus 0 after the first and 1 after the second, so the root
   surpluses must be advanced across both; no probe propagates into R,
   so x3, the first probe after the second failure, strengthens it. *)
let failed_literals_accumulate_at_root () =
  let b = Problem.Builder.create ~nvars:6 () in
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.neg 1 ];
  Problem.Builder.add_clause b [ Lit.neg 2; Lit.pos 3 ];
  Problem.Builder.add_clause b [ Lit.neg 2; Lit.neg 3 ];
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.neg 2; Lit.pos 5 ];
  Problem.Builder.add_clause b [ Lit.pos 3; Lit.pos 4 ];
  let p = Problem.Builder.build b in
  let r = check_against_ref "two failed literals" p in
  Alcotest.(check int) "x0 and x2 fixed" 2 r.fixed_literals;
  let p', _ = Bsolo.Strengthen.apply p in
  Alcotest.(check bool) "R gets ~x3" true
    (has_constraint p' [ 1, Lit.neg 0; 1, Lit.neg 2; 1, Lit.pos 5; 1, Lit.neg 3 ] 2)

(* A probe's surplus can exceed what [Constr.make_ge] accepts although
   every input coefficient is within the parser's limit: probing x5
   forces all four terms of the wide-coefficient row, surplus ~2^41.
   Strengthening must cap it rather than raise, keep the model set, and
   the default solve must still find the optimum 2. *)
let surplus_beyond_coefficient_limit () =
  let p =
    Opb.parse_string
      {|* #variable= 5 #constraint= 5
min: +1 x1 +1 x2 +1 x3 +1 x4 +1 x5 ;
+1099511627776 x1 +1099511627775 x2 +1099511627773 x3 +1099511627769 x4 >= 2199023255543 ;
+1 ~x5 +1 x1 >= 1 ;
+1 ~x5 +1 x2 >= 1 ;
+1 ~x5 +1 x3 >= 1 ;
+1 ~x5 +1 x4 >= 1 ;
|}
  in
  let p', r = Bsolo.Strengthen.apply p in
  Alcotest.(check bool) "strengthened something" true (r.strengthened >= 1);
  for mask = 0 to 31 do
    let m = Model.of_array (Array.init 5 (fun v -> (mask lsr v) land 1 = 1)) in
    Alcotest.(check bool) "same models" (Model.satisfies p m) (Model.satisfies p' m)
  done;
  let o = Bsolo.Solver.solve p in
  Alcotest.(check string) "status" "OPTIMAL" (Bsolo.Outcome.status_name o.status);
  Alcotest.(check (option int)) "optimum" (Some 2) (Bsolo.Outcome.best_cost o)

(* C: x0 + x1 + x2 >= 1 with x0 -> x1 and x0 -> x2: probing x0 forces
   weight 3 into C, but x0 is C's own variable, so that probe is skipped
   and C stays as it is. *)
let own_variable_probe_skipped () =
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.pos 2 ];
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ];
  let p = Problem.Builder.build b in
  ignore (check_against_ref "own variable" p);
  let p', _ = Bsolo.Strengthen.apply p in
  Alcotest.(check bool) "C unchanged" true
    (has_constraint p' [ 1, Lit.pos 0; 1, Lit.pos 1; 1, Lit.pos 2 ] 1)

let suite =
  [
    Alcotest.test_case "model equivalence" `Slow model_equivalence;
    Alcotest.test_case "strengthens implications" `Quick strengthens_implications;
    Alcotest.test_case "reports fixed literals" `Quick reports_fixed_literals;
    Alcotest.test_case "optimum preserved" `Slow optimum_preserved_under_solving;
    Alcotest.test_case "empty problem" `Quick empty_problem;
    Alcotest.test_case "matches the quadratic reference" `Slow matches_reference;
    Alcotest.test_case "root over-satisfied gets first foreign probe" `Quick
      over_satisfied_at_root;
    Alcotest.test_case "failed literal changes the root" `Quick failed_literal_changes_root;
    Alcotest.test_case "own-variable probe skipped" `Quick own_variable_probe_skipped;
    Alcotest.test_case "failed literals accumulate at the root" `Quick
      failed_literals_accumulate_at_root;
    Alcotest.test_case "surplus beyond the coefficient limit" `Quick
      surplus_beyond_coefficient_limit;
  ]
