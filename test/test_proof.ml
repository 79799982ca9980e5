(* Proof logging round-trips: every proof the solver emits must replay
   through the exact checker, and corrupted proofs must be rejected.
   This is the executable statement of the trust model in docs/PROOFS.md:
   the checker, not the solver, is the part you have to believe. *)

open Pbo

let solve_with_proof ?(options = Bsolo.Options.default) problem =
  let buf = Buffer.create 4096 in
  let sink = Proof.Sink.of_buffer buf in
  let logger = Proof.create sink problem in
  let o = Bsolo.Solver.solve ~options:{ options with proof = Some logger } problem in
  Proof.Sink.close sink;
  o, Buffer.contents buf

let check_ok problem text =
  match Proof.Check.check_string problem text with
  | Ok s -> s
  | Error msg -> Alcotest.failf "proof rejected: %s" msg

(* The checked verdict must not claim less than the solver reported:
   an Optimal outcome must replay to OPTIMAL at the same cost, an
   Unsatisfiable one to UNSAT.  Unknown runs may conclude anything the
   steps support (SAT/BOUNDS/NONE). *)
let verdict_matches (o : Bsolo.Outcome.t) (s : Proof.Check.summary) =
  match o.status with
  | Bsolo.Outcome.Optimal ->
    let c = match Bsolo.Outcome.best_cost o with Some c -> c | None -> 0 in
    Alcotest.(check string) "optimal verdict" ("OPTIMAL " ^ string_of_int c) s.verdict
  | Bsolo.Outcome.Unsatisfiable -> Alcotest.(check string) "unsat verdict" "UNSAT" s.verdict
  | Bsolo.Outcome.Satisfiable | Bsolo.Outcome.Unknown -> ()

let roundtrip_seed seed =
  let problem = Gen.problem seed in
  let o, text = solve_with_proof problem in
  verdict_matches o (check_ok problem text)

let roundtrip_covering seed =
  let problem = Gen.covering seed in
  let o, text = solve_with_proof problem in
  verdict_matches o (check_ok problem text)

let roundtrip_random () = for seed = 0 to 39 do roundtrip_seed seed done
let roundtrip_covering_instances () = for seed = 0 to 19 do roundtrip_covering seed done

(* Every lower-bound procedure produces its own certificate shape (LPR
   duals, MIS cover ratios, LGR multipliers, plain path costs); each must
   round-trip, not just the default. *)
let roundtrip_lb_methods () =
  List.iter
    (fun lb ->
      for seed = 0 to 9 do
        let problem = Gen.covering seed in
        let options = Bsolo.Options.with_lb lb in
        let o, text = solve_with_proof ~options problem in
        verdict_matches o (check_ok problem text)
      done)
    [ Bsolo.Options.Plain; Bsolo.Options.Mis; Bsolo.Options.Lgr; Bsolo.Options.Lpr ]

(* pbs is the bsolo driver without lower bounds, so it logs the same
   steps (RUP clauses, verified solutions, objective cuts).  galena under
   proof is forced down to clause learning and must check as well. *)
let roundtrip_linear_search () =
  List.iter
    (fun (preset : Bsolo.Options.t) ->
      let check problem =
        let o, text = solve_with_proof ~options:preset problem in
        verdict_matches o (check_ok problem text)
      in
      for seed = 0 to 9 do
        check (Gen.problem seed);
        check (Gen.covering seed)
      done)
    [ Bsolo.Options.pbs; Bsolo.Options.galena ]

(* qcheck: arbitrary generator seeds, both instance families. *)
let qcheck_roundtrip =
  QCheck2.Test.make ~name:"solver proofs replay through the checker" ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, covering) ->
      let problem = if covering then Gen.covering seed else Gen.problem seed in
      let o, text = solve_with_proof problem in
      match Proof.Check.check_string problem text with
      | Error _ -> false
      | Ok s -> (
        match o.status, Bsolo.Outcome.best_cost o with
        | Bsolo.Outcome.Optimal, Some c -> s.verdict = "OPTIMAL " ^ string_of_int c
        | Bsolo.Outcome.Unsatisfiable, _ -> s.verdict = "UNSAT"
        | _ -> true))

(* --- mutation rejection ----------------------------------------------------- *)

(* A proved-Optimal run whose proof we then corrupt.  Gen.covering 1 is
   satisfiable with a nontrivial optimum, so the log carries solution
   steps and an OPTIMAL conclusion. *)
let optimal_proof () =
  let problem = Gen.covering 1 in
  let o, text = solve_with_proof problem in
  (match o.status with
  | Bsolo.Outcome.Optimal -> ()
  | _ -> Alcotest.fail "expected an Optimal run");
  let cost = match Bsolo.Outcome.best_cost o with Some c -> c | None -> 0 in
  problem, text, cost

let lines text = String.split_on_char '\n' text
let unlines ls = String.concat "\n" ls

let reject problem text what =
  match Proof.Check.check_string problem text with
  | Error _ -> ()
  | Ok s -> Alcotest.failf "%s accepted (verdict %s)" what s.verdict

let mutation_dropped_solution () =
  let problem, text, _ = optimal_proof () in
  (* Drop the last verified-solution step: the OPTIMAL conclusion now
     claims a cost no surviving witness reaches. *)
  let ls = lines text in
  let last_s =
    List.fold_left
      (fun (i, best) l ->
        (i + 1, if String.length l >= 2 && String.sub l 0 2 = "s " then Some i else best))
      (0, None) ls
    |> snd
  in
  let last_s = match last_s with Some i -> i | None -> Alcotest.fail "no solution step" in
  let mutated = unlines (List.filteri (fun i _ -> i <> last_s) ls) in
  reject problem mutated "dropped solution step"

let mutation_weakened_conclusion () =
  let problem, text, cost = optimal_proof () in
  (* Claim an optimum one better than anything witnessed. *)
  let target = "c OPTIMAL " ^ string_of_int cost in
  let forged = "c OPTIMAL " ^ string_of_int (cost - 1) in
  let ls =
    List.map (fun l -> if String.trim l = target then forged else l) (lines text)
  in
  let mutated = unlines ls in
  if mutated = text then Alcotest.fail "conclusion line not found";
  reject problem mutated "weakened conclusion"

let mutation_truncated () =
  let problem, text, _ = optimal_proof () in
  (* Cut the log before its conclusion: replay must report truncation. *)
  let ls = List.filter (fun l -> String.trim l = "" || l.[0] <> 'c') (lines text) in
  reject problem (unlines ls) "truncated proof"

(* --- checker cuts mirror the solver's --------------------------------------- *)

let norm_equal a b =
  match a, b with
  | Constr.Trivial_true, Constr.Trivial_true | Constr.Trivial_false, Constr.Trivial_false ->
    true
  | Constr.Constr x, Constr.Constr y -> Constr.equal x y
  | _ -> false

let pp_norm = function
  | Constr.Trivial_true -> "true"
  | Constr.Trivial_false -> "false"
  | Constr.Constr c -> Constr.to_string c

(* The checker recomputes the eq. (10) objective cut itself on every
   verified/imported incumbent, and the eq. (11-13) cardinality cuts on
   [d] steps; both must stay semantically identical to the solver's
   Knapsack module or sound solver prunes would be unjustifiable. *)
let objective_cut_matches () =
  for seed = 0 to 29 do
    let problem = Gen.problem seed in
    let hi = Pbo.Problem.max_cost_sum problem in
    List.iter
      (fun upper ->
        match Proof.objective_cut problem ~upper, Pbo.Problem.is_satisfaction problem with
        | None, true -> ()
        | None, false -> Alcotest.fail "objective cut missing on optimization instance"
        | Some _, true -> Alcotest.fail "objective cut on satisfaction instance"
        | Some n, false ->
          let k = Bsolo.Knapsack.upper_cut problem ~upper in
          if not (norm_equal n k) then
            Alcotest.failf "objective cut mismatch at upper=%d: %s vs %s" upper (pp_norm n)
              (pp_norm k))
      [ 0; 1; (hi / 2) + 1; hi ]
  done

let cardinality_cut_matches () =
  for seed = 0 to 29 do
    let problem = Gen.problem seed in
    let ncons = Array.length (Pbo.Problem.constraints problem) in
    let hi = Pbo.Problem.max_cost_sum problem in
    List.iter
      (fun upper ->
        let expected = Bsolo.Knapsack.cardinality_inferences_cids problem ~upper in
        for cid = 0 to ncons - 1 do
          match Proof.cardinality_cut problem ~cid ~upper, List.assoc_opt cid expected with
          | None, None -> ()
          | Some n, Some k ->
            if not (norm_equal n k) then
              Alcotest.failf "cardinality cut mismatch cid=%d upper=%d: %s vs %s" cid upper
                (pp_norm n) (pp_norm k)
          | Some _, None -> Alcotest.failf "spurious cardinality cut cid=%d upper=%d" cid upper
          | None, Some _ -> Alcotest.failf "missing cardinality cut cid=%d upper=%d" cid upper
        done)
      [ 1; (hi / 2) + 1; hi ]
  done

(* --- cutting-planes [j] steps ----------------------------------------------- *)

(* log_derived computes the combination exactly as the checker replays
   it: weakening 7x0 + 3~x1 + 3x2 + 2x3 >= 7 with literal axioms down
   to raw coefficients 7/2/3/2 and ceiling-dividing by 1 must land on
   the sequentially-tightened constraint, and the emitted log must
   check. *)
let j_step_roundtrip () =
  let b = Pbo.Problem.Builder.create ~nvars:4 () in
  Pbo.Problem.Builder.add_ge b
    [ (7, Pbo.Lit.pos 0); (3, Pbo.Lit.neg 1); (3, Pbo.Lit.pos 2); (2, Pbo.Lit.pos 3) ]
    7;
  let problem = Pbo.Problem.Builder.build b in
  let buf = Buffer.create 256 in
  let sink = Proof.Sink.of_buffer buf in
  let logger = Proof.create sink problem in
  (match
     Proof.log_derived logger
       ~refs:[ (Proof.Rcid 0, 1); (Proof.Rlit (Pbo.Lit.pos 1), 1) ]
       ~divisor:1
   with
  | None -> Alcotest.fail "valid j step refused"
  | Some (k, c) ->
    Alcotest.(check int) "first derived index" 0 k;
    (match Pbo.Constr.make_ge [ (7, Pbo.Lit.pos 0); (2, Pbo.Lit.neg 1); (3, Pbo.Lit.pos 2); (2, Pbo.Lit.pos 3) ] 6 with
    | Pbo.Constr.Constr expect ->
      Alcotest.(check bool) "derived constraint" true (Pbo.Constr.equal c expect)
    | _ -> Alcotest.fail "expected normal form"));
  (* an unresolvable reference or bad divisor writes nothing *)
  (match Proof.log_derived logger ~refs:[ (Proof.Rderived 7, 1) ] ~divisor:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "dangling derived ref accepted");
  (match Proof.log_derived logger ~refs:[ (Proof.Rcid 0, 1) ] ~divisor:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "non-positive divisor accepted");
  Proof.log_conclusion logger Proof.No_claim;
  Proof.Sink.close sink;
  match Proof.Check.check_string problem (Buffer.contents buf) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "j-step log rejected: %s" msg

(* Weakened-derivation mutation: default options now run certified
   presolve and cut separation, so solver logs carry [j] steps whose
   derived constraints later steps depend on (through the cid alias map
   and bound-conflict certificates).  Doubling a [j] divisor weakens the
   derived constraint; across the corpus at least one such forgery must
   be caught, and none may crash the checker. *)
let mutation_weakened_derivation () =
  let is_j l = String.length l >= 2 && String.sub l 0 2 = "j " in
  let with_j = ref 0 and zeroed_caught = ref 0 and dropped_caught = ref 0 in
  for seed = 0 to 24 do
    let problem = Gen.problem seed in
    let _, text = solve_with_proof problem in
    let ls = lines text in
    let first_j = ref (-1) in
    List.iteri (fun i l -> if !first_j < 0 && is_j l then first_j := i) ls;
    if !first_j >= 0 then begin
      incr with_j;
      (* a non-positive divisor no longer justifies the division *)
      let zeroed =
        List.mapi
          (fun i l ->
            if i = !first_j then begin
              match String.rindex_opt l ' ' with
              | Some sp -> String.sub l 0 (sp + 1) ^ "0"
              | None -> l
            end
            else l)
          ls
      in
      (match Proof.Check.check_string problem (unlines zeroed) with
      | Error _ -> incr zeroed_caught
      | Ok _ -> ());
      (* pointing the step at a derived constraint that does not exist
         leaves the combination unresolvable *)
      let dangling =
        List.mapi
          (fun i l ->
            if i = !first_j then begin
              match String.split_on_char ' ' l with
              | "j" :: _ :: rest -> String.concat " " ("j" :: "x9999:1" :: rest)
              | _ -> l
            end
            else l)
          ls
      in
      match Proof.Check.check_string problem (unlines dangling) with
      | Error _ -> incr dropped_caught
      | Ok _ -> ()
    end
  done;
  Alcotest.(check bool) "corpus contains j steps" true (!with_j > 0);
  Alcotest.(check int) "every zeroed divisor caught" !with_j !zeroed_caught;
  Alcotest.(check int) "every dangling reference caught" !with_j !dropped_caught

(* --- portfolio stitching ---------------------------------------------------- *)

let portfolio_proof jobs () =
  let problem = Gen.covering 3 in
  let path = Filename.temp_file "bsolo_test" ".pbp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r = Portfolio.solve ~proof_file:path ~jobs ~budget:5.0 problem in
      (match r.Portfolio.outcome.status with
      | Bsolo.Outcome.Optimal -> ()
      | s -> Alcotest.failf "portfolio did not prove: %s" (Bsolo.Outcome.status_name s));
      let cost =
        match Bsolo.Outcome.best_cost r.Portfolio.outcome with Some c -> c | None -> 0
      in
      match Proof.Check.check_file problem path with
      | Error msg -> Alcotest.failf "stitched proof rejected: %s" msg
      | Ok s ->
        Alcotest.(check string) "stitched verdict" ("OPTIMAL " ^ string_of_int cost) s.verdict;
        Alcotest.(check bool) "has sections" true (s.sections <> [] && s.sections <> [ "" ]))

let suite =
  [
    Alcotest.test_case "random instances round-trip" `Quick roundtrip_random;
    Alcotest.test_case "covering instances round-trip" `Quick roundtrip_covering_instances;
    Alcotest.test_case "all lb methods round-trip" `Slow roundtrip_lb_methods;
    Alcotest.test_case "pbs and galena round-trip" `Quick roundtrip_linear_search;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "dropped solution step rejected" `Quick mutation_dropped_solution;
    Alcotest.test_case "weakened conclusion rejected" `Quick mutation_weakened_conclusion;
    Alcotest.test_case "truncated proof rejected" `Quick mutation_truncated;
    Alcotest.test_case "objective cut mirrors knapsack" `Quick objective_cut_matches;
    Alcotest.test_case "cardinality cuts mirror knapsack" `Quick cardinality_cut_matches;
    Alcotest.test_case "j steps round-trip" `Quick j_step_roundtrip;
    Alcotest.test_case "weakened derivation rejected" `Quick mutation_weakened_derivation;
    Alcotest.test_case "sequential portfolio proof stitches" `Quick (portfolio_proof 1);
    Alcotest.test_case "parallel portfolio proof stitches" `Quick (portfolio_proof 2);
  ]
