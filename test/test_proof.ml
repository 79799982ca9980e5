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
   steps support (SAT/NONE). *)
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

(* The format has no unverified incumbent: an [i] assumption step (a
   cost without its model) and a [BOUNDS] conclusion are unknown to the
   checker, wherever they appear. *)
let mutation_removed_steps () =
  let problem, text, cost = optimal_proof () in
  let rejected_with what needle mutated =
    match Proof.Check.check_string problem mutated with
    | Ok s -> Alcotest.failf "%s accepted (verdict %s)" what s.verdict
    | Error msg ->
      let n = String.length needle in
      let rec has i = i + n <= String.length msg && (String.sub msg i n = needle || has (i + 1)) in
      if not (has 0) then Alcotest.failf "%s rejected for another reason: %s" what msg
  in
  let ls = lines text in
  let after_f =
    List.concat_map
      (fun l ->
        if String.starts_with ~prefix:"f " l then [ l; Printf.sprintf "i %d peer" (cost - 1) ]
        else [ l ])
      ls
  in
  rejected_with "an i step" "unknown step \"i\"" (unlines after_f);
  let bounds =
    List.map
      (fun l ->
        if String.starts_with ~prefix:"c OPTIMAL" l then Printf.sprintf "c BOUNDS %d %d" cost cost
        else l)
      ls
  in
  if bounds = ls then Alcotest.fail "conclusion line not found";
  rejected_with "a BOUNDS conclusion" "unknown conclusion" (unlines bounds)

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
   verified incumbent, and the eq. (11-13) cardinality cuts on
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
          let k = Bsolo.Knapsack.(cut (knapsack_row problem) ~upper) in
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
        let expected =
          List.map
            (fun (row : Bsolo.Knapsack.row) -> Option.get row.cid, Bsolo.Knapsack.cut row ~upper)
            (Bsolo.Knapsack.cardinality_rows problem)
        in
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

(* --- the checker's propagation engine --------------------------------------- *)

let proof_of steps nconstrs =
  unlines (("p " ^ Proof.version) :: Printf.sprintf "f %d" nconstrs :: steps @ [ "c NONE"; "" ])

(* [reject_at problem steps k]: the proof fails exactly at step [k]
   (0-based), i.e. at line [k + 3] of the log. *)
let reject_at problem steps k what =
  let n = Array.length (Problem.constraints problem) in
  match Proof.Check.check_string problem (proof_of steps n) with
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error msg ->
    let prefix = Printf.sprintf "line %d:" (k + 3) in
    if not (String.starts_with ~prefix msg) then
      Alcotest.failf "%s rejected at the wrong place: %s" what msg

let accept problem steps what =
  let n = Array.length (Problem.constraints problem) in
  match Proof.Check.check_string problem (proof_of steps n) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s rejected: %s" what msg

(* [u 1 -1 0] normalizes to a tautology: the logger writes it without
   numbering it, so the checker must accept it and add no derived
   constraint (an [x0] reference after it dangles). *)
let tautological_rup () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  let problem = Problem.Builder.build b in
  accept problem [ "u 1 -1 0" ] "tautological u step";
  accept problem [ "u 2 1 -2 0"; "u 1 2 0"; "j x0:1 ; 1" ] "numbering after a tautology";
  reject_at problem [ "u 1 -1 0"; "j x0:1 ; 1" ] 1 "reference to a tautology's number"

(* min 2x1 + x2 + x3 + x4 s.t. x1 v x2, x3 v x4.  Under the cut of
   bound 3 (cost <= 2), x1 forces x3 and x4 false, so ~x1 is RUP; under
   the cut of bound 4 nothing propagates.  A later, looser incumbent
   must not bring the weaker cut back. *)
let objective_cut_order () =
  let b = Problem.Builder.create ~nvars:4 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.pos 2; Lit.pos 3 ];
  Problem.Builder.set_objective b [ (2, Lit.pos 0); (1, Lit.pos 1); (1, Lit.pos 2); (1, Lit.pos 3) ];
  let problem = Problem.Builder.build b in
  accept problem [ "s 4 1011"; "s 3 1010"; "u -1 0" ] "u after the tighter cut";
  accept problem [ "s 3 1010"; "s 4 1011"; "u -1 0" ] "u after a looser incumbent";
  reject_at problem [ "s 4 1011"; "u -1 0"; "s 3 1010" ] 1 "u before the tighter cut"

(* min x1 + ... + x5 s.t. x1 + x2 + x5 >= 2.  The row's cardinality cut
   at bound 3 (cost <= 2) is x3 + x4 <= 0, which fixes ~x3 at the root;
   the cut at bound 4 and the objective cut at bound 3 do not imply it. *)
let cardinality_cut_order () =
  let b = Problem.Builder.create ~nvars:5 () in
  Problem.Builder.add_cardinality b [ Lit.pos 0; Lit.pos 1; Lit.pos 4 ] 2;
  Problem.Builder.set_objective b (List.init 5 (fun v -> 1, Lit.pos v));
  let problem = Problem.Builder.build b in
  accept problem [ "s 4 11110"; "d 0"; "s 3 11100"; "d 0"; "u -3 0" ] "u after the tighter d cut";
  reject_at problem [ "s 4 11110"; "d 0"; "u -3 0"; "s 3 11100"; "d 0" ] 2
    "u before the tighter d cut";
  reject_at problem [ "s 4 11110"; "d 0"; "s 3 11100"; "u -3 0" ] 3 "u without the tighter d cut"

(* A real proof with thousands of RUP steps (genpb knap --scale 1.5
   --seed 1): dropping one literal from a learned clause so that it is
   no longer RUP must be rejected at that clause's line.  Mutations the
   checker still accepts are strengthenings that do propagate. *)
let knap_dropped_literal () =
  let problem =
    Benchgen.Knapsack.generate
      ~params:{ Benchgen.Knapsack.default with items = 99; rows = 47 }
      1
  in
  let _, text = solve_with_proof problem in
  Alcotest.(check string) "unmutated proof" "OPTIMAL 358" (check_ok problem text).verdict;
  let ls = Array.of_list (lines text) in
  let caught = ref None in
  let i = ref 0 in
  while !caught = None && !i < Array.length ls do
    (match String.split_on_char ' ' ls.(!i) with
    | "u" :: _ :: _ :: _ :: _ as toks ->
      (* drop the first literal of a clause of at least two *)
      let mutated = Array.copy ls in
      mutated.(!i) <- String.concat " " ("u" :: List.tl (List.tl toks));
      (match Proof.Check.check_string problem (unlines (Array.to_list mutated)) with
      | Ok _ -> ()
      | Error msg ->
        let prefix = Printf.sprintf "line %d: RUP check failed" (!i + 1) in
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "mutated line %d rejected elsewhere: %s" (!i + 1) msg;
        caught := Some !i)
    | _ -> ());
    incr i
  done;
  if !caught = None then Alcotest.fail "no dropped literal was caught"

(* Differential oracle: the checker's former engine, counting
   propagation over [(constraint, coeff)] occurrence lists of the whole
   database with nothing ever retired, rebuilt from scratch per query. *)
let reference_rup ~nvars db clause =
  let value = Array.make nvars Value.Unknown in
  let lit_value l =
    let v = value.(Lit.var l) in
    if Lit.is_pos l then v else Value.negate v
  in
  let pending = Queue.create () in
  let assign l =
    value.(Lit.var l) <- (if Lit.is_pos l then Value.True else Value.False);
    Queue.add l pending
  in
  let constrs = Array.of_list db in
  let occs = Array.make (2 * nvars) [] in
  let slack = Array.map (Constr.slack_under lit_value) constrs in
  Array.iteri
    (fun ci c ->
      Array.iter
        (fun (t : Constr.term) ->
          let i = Lit.to_index t.lit in
          occs.(i) <- (ci, t.coeff) :: occs.(i))
        (Constr.terms c))
    constrs;
  let scan ci =
    Array.iter
      (fun (t : Constr.term) ->
        if t.coeff > slack.(ci) && Value.equal (lit_value t.lit) Value.Unknown then assign t.lit)
      (Constr.terms constrs.(ci))
  in
  let propagate () =
    let conflict = ref false in
    while (not !conflict) && not (Queue.is_empty pending) do
      let falsified = Lit.to_index (Lit.negate (Queue.pop pending)) in
      List.iter
        (fun (ci, a) ->
          slack.(ci) <- slack.(ci) - a;
          if slack.(ci) < 0 then conflict := true)
        occs.(falsified);
      if not !conflict then List.iter (fun (ci, _) -> scan ci) occs.(falsified)
    done;
    !conflict
  in
  (* root state first, then the clause's negation on top of it *)
  let root_conflict =
    Array.exists (fun s -> s < 0) slack
    || begin
      Array.iteri (fun ci _ -> scan ci) constrs;
      propagate ()
    end
  in
  root_conflict
  || List.exists (fun l -> Value.equal (lit_value l) Value.True) clause
  || begin
    List.iter (fun l -> if Value.equal (lit_value l) Value.Unknown then assign (Lit.negate l)) clause;
    propagate ()
  end

let gen_problem rng =
  let nvars = 3 + Random.State.int rng 8 in
  let lit () = Lit.make (Random.State.int rng nvars) (Random.State.bool rng) in
  let lits k = List.init (1 + Random.State.int rng k) (fun _ -> lit ()) in
  let b = Problem.Builder.create ~nvars () in
  for _ = 1 to 1 + Random.State.int rng 4 do
    Problem.Builder.add_clause b (lits 3)
  done;
  for _ = 1 to Random.State.int rng 3 do
    let ls = List.init (2 + Random.State.int rng 3) (fun _ -> Lit.pos (Random.State.int rng nvars)) in
    Problem.Builder.add_cardinality b ls (1 + Random.State.int rng (List.length ls - 1))
  done;
  for _ = 1 to Random.State.int rng 3 do
    let terms = List.map (fun l -> 1 + Random.State.int rng 5, l) (lits 4) in
    let total = List.fold_left (fun acc (c, _) -> acc + c) 0 terms in
    Problem.Builder.add_ge b terms (1 + Random.State.int rng total)
  done;
  Problem.Builder.set_objective b
    (List.init nvars (fun v -> 1 + Random.State.int rng 3, Lit.make v (Random.State.bool rng)));
  Problem.Builder.build b, lit

let all_models problem =
  let n = Problem.nvars problem in
  List.init (1 lsl n) (fun bits -> Model.of_array (Array.init n (fun v -> bits land (1 lsl v) <> 0)))
  |> List.filter (Model.satisfies problem)

let model_bits m =
  String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list (Model.to_array m)))

(* Random step sequences replayed one step at a time: after each
   accepted step the proof so far must check, a [u] step must get the
   reference's verdict (a rejected one is dropped again), and every
   accepted [u] clause must hold in every model below the current
   bound. *)
let differential seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let problem, lit = gen_problem rng in
  let nvars = Problem.nvars problem in
  let offset = match Problem.objective problem with Some o -> o.offset | None -> 0 in
  let models = Array.of_list (all_models problem) in
  let cardinality_cids =
    List.filter
      (fun cid -> Constr.is_cardinality (Problem.constraints problem).(cid))
      (List.init (Array.length (Problem.constraints problem)) Fun.id)
  in
  let upper = ref (Problem.max_cost_sum problem + 1) in
  let db =
    ref (if Problem.trivially_unsat problem then [] else Array.to_list (Problem.constraints problem))
  in
  let closed = ref (Problem.trivially_unsat problem) in
  let add = function
    | Some (Constr.Constr c) -> db := c :: !db
    | Some Constr.Trivial_false -> closed := true
    | Some Constr.Trivial_true | None -> ()
  in
  let steps = ref [] in
  let check_prefix extra =
    Proof.Check.check_string problem
      (proof_of (List.rev_append !steps extra) (Array.length (Problem.constraints problem)))
  in
  let commit step = steps := step :: !steps in
  for _ = 1 to 25 do
    match Random.State.int rng 6 with
    | 0 when Array.length models > 0 ->
      let m =
        match Random.State.int rng 6, Bsolo.Exhaustive.optimum problem with
        | 0, Some (m, _) -> m
        | _ -> models.(Random.State.int rng (Array.length models))
      in
      let cost = Model.cost problem m in
      upper := min !upper (cost - offset);
      add (Proof.objective_cut problem ~upper:!upper);
      commit (Printf.sprintf "s %d %s" cost (model_bits m))
    | 1 when cardinality_cids <> [] -> (
      let cid = List.nth cardinality_cids (Random.State.int rng (List.length cardinality_cids)) in
      match Proof.cardinality_cut problem ~cid ~upper:!upper with
      | None -> ()
      | Some n ->
        add (Some n);
        commit (Printf.sprintf "d %d" cid))
    | _ ->
      let len = if Random.State.int rng 8 = 0 then 0 else 1 + Random.State.int rng 3 in
      let clause = List.init len (fun _ -> lit ()) in
      let step = String.concat " " (("u" :: List.map (fun l -> string_of_int (Proof.lit_to_int l)) clause) @ [ "0" ]) in
      let expected =
        match Constr.clause clause with
        | Constr.Trivial_true -> true
        | Constr.Trivial_false | Constr.Constr _ ->
          !closed || reference_rup ~nvars (List.rev !db) clause
      in
      let got = Result.is_ok (check_prefix [ step ]) in
      if got <> expected then
        QCheck2.Test.fail_reportf "%s: checker %b, reference %b after:\n%s" step got expected
          (String.concat "\n" (List.rev !steps))
      else if got then begin
        add (Some (Constr.clause clause));
        commit step;
        Array.iter
          (fun m ->
            if Model.cost problem m - offset < !upper && not (List.exists (Model.lit_true m) clause)
            then QCheck2.Test.fail_reportf "%s accepted but a model below %d falsifies it" step !upper)
          models
      end
  done;
  match check_prefix [] with
  | Ok _ -> true
  | Error msg -> QCheck2.Test.fail_reportf "final proof rejected: %s" msg

let qcheck_differential =
  QCheck2.Test.make ~name:"checker agrees with the counting reference" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    differential

(* --- in-place supersession ---------------------------------------------- *)

(* min x1 + ... + x8 s.t. x1 + x2 + x8 >= 2, (x9 v x3), (~x9 v x3).  The
   row's cut at bound u is ~x3 + ... + ~x7 >= 8 - u over one shared term
   array, so a [d 0] at a lower bound tightens the live cut in place.
   [u 3 0] is RUP but not propagated at the root; once added it falsifies
   ~x3 inside the live cut.  Every candidate clause must get the same
   verdict whether the cut at bound 5 (and 4) was tightened in place or
   first added after the root fix. *)
let tightened_cut_matches_fresh () =
  let b = Problem.Builder.create ~nvars:9 () in
  Problem.Builder.add_cardinality b [ Lit.pos 0; Lit.pos 1; Lit.pos 7 ] 2;
  Problem.Builder.add_clause b [ Lit.pos 8; Lit.pos 2 ];
  Problem.Builder.add_clause b [ Lit.neg 8; Lit.pos 2 ];
  Problem.Builder.set_objective b (List.init 8 (fun v -> 1, Lit.pos v));
  let problem = Problem.Builder.build b in
  let cut u =
    match Proof.cardinality_cut problem ~cid:0 ~upper:u with
    | Some (Constr.Constr c) -> Constr.terms c, Constr.degree c
    | _ -> Alcotest.fail "row 0 has no cut"
  in
  Alcotest.(check (list int)) "degrees" [ 2; 3; 4 ] (List.map (fun u -> snd (cut u)) [ 6; 5; 4 ]);
  Alcotest.(check bool) "one left-hand side" true (fst (cut 6) = fst (cut 5) && fst (cut 5) = fst (cut 4));
  let tightened = [ "s 6 111111000"; "d 0"; "u 3 0"; "s 5 111110000"; "d 0" ] in
  let fresh = [ "s 6 111111000"; "u 3 0"; "s 5 111110000"; "d 0" ] in
  let verdict steps =
    Result.is_ok (Proof.Check.check_string problem (proof_of steps 3))
  in
  let candidates = [ "u -4 -5 0"; "u -4 0"; "u -4 -5 -6 0"; "u 1 0"; "u 8 0"; "u -1 -2 0" ] in
  List.iter
    (fun u ->
      Alcotest.(check bool) ("bound 5: " ^ u) (verdict (fresh @ [ u ])) (verdict (tightened @ [ u ])))
    candidates;
  accept problem (tightened @ [ "u -4 -5 0" ]) "two more literals of the cut";
  reject_at problem (tightened @ [ "u -4 0" ]) 5 "one more literal of the cut";
  let at4 = [ "s 4 111100000"; "d 0" ] in
  List.iter
    (fun u ->
      Alcotest.(check bool) ("bound 4: " ^ u)
        (verdict (fresh @ at4 @ [ u ]))
        (verdict (tightened @ at4 @ [ u ])))
    candidates;
  accept problem (tightened @ at4 @ [ "u -4 0"; "u -7 0" ]) "cut at bound 4 fixes x4..x7"

(* min 4x1 + x2 + x3 + x4 + x5 s.t. x1 v x2, x3 v x4.  The objective cut
   at bound 6 saturates x1's coefficient (3 ~x1 + ~x2 + ... >= 3), the
   one at bound 5 does not (4 ~x1 + ... >= 4): different term arrays, so
   the tighter cut is added and the looser one killed.  Only the tighter
   cut makes ~x1 RUP (x1 costs 4, and x3 v x4 one more). *)
let saturated_cut_added_fresh () =
  let b = Problem.Builder.create ~nvars:5 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  Problem.Builder.add_clause b [ Lit.pos 2; Lit.pos 3 ];
  Problem.Builder.set_objective b
    [ (4, Lit.pos 0); (1, Lit.pos 1); (1, Lit.pos 2); (1, Lit.pos 3); (1, Lit.pos 4) ];
  let problem = Problem.Builder.build b in
  (match Proof.objective_cut problem ~upper:6, Proof.objective_cut problem ~upper:5 with
  | Some (Constr.Constr loose), Some (Constr.Constr tight) ->
    Alcotest.(check int) "looser cut saturates" 3 (Constr.max_coeff loose);
    Alcotest.(check int) "tighter cut does not" 4 (Constr.max_coeff tight);
    Alcotest.(check bool) "no shared terms" false (Constr.terms loose == Constr.terms tight)
  | _ -> Alcotest.fail "expected two objective cuts");
  accept problem [ "s 6 10101"; "s 5 10100"; "u -1 0" ] "u after the tighter cut";
  reject_at problem [ "s 6 10101"; "u -1 0"; "s 5 10100" ] 1 "u before the tighter cut"

(* --- malformed lines ------------------------------------------------------- *)

(* Every malformed line is a clean [Error "line 3: ..."], never an
   exception, with the message the checker has always given. *)
let malformed_lines () =
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_cardinality b [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ] 2;
  Problem.Builder.set_objective b (List.init 3 (fun v -> 1, Lit.pos v));
  let problem = Problem.Builder.build b in
  let table =
    [
      "b x-1:5 ; 1 0", "bad derived reference \"x-1:5\"";
      "b 0:4611686018427387903 ; 1 0", "b certificate does not justify the clause";
      "u 1 2 0 3 0", "0 terminator before end of literal list";
      "j l0:1 ; 1", "bad literal axiom \"l0:1\"";
      "d -1", "no cardinality cut derivable from cid -1";
      "c OPTIMAL 99999999999999999999", "bad integer \"99999999999999999999\"";
      "u 1 2", "missing 0 terminator";
      "u", "missing 0 terminator";
      "u 1 00", "0 terminator before end of literal list";
      "u 4 0", "literal 4 out of range";
      "u 1x 0", "bad integer \"1x\"";
      "u 4611686018427387904 0", "bad integer \"4611686018427387904\"";
      "b 0:1 1 0", "missing ';' separator";
      "b 0 ; 1 0", "bad multiplier token \"0\" (want ref:m)";
      "b :1 ; 1 0", "empty reference in \":1\"";
      "b 0:-1 ; 1 0", "negative multiplier in \"0:-1\"";
      "b 0: ; 1 0", "bad integer \"\"";
      "b x:1 ; 1 0", "bad integer \"\"";
      "y x0:1 ; 1 0", "y certificate does not justify the clause";
      "b 0:1 ; 1", "missing 0 terminator";
      "j 0:1 ; 1 2", "bad 'j' divisor clause";
      "j 0:1 ;", "bad 'j' divisor clause";
      "j 0:1 ; 0", "non-positive divisor 0";
      "j 0:1", "missing ';' separator";
      "j q1:1 ; 1", "bad integer \"q1\"";
      "j 5:1 ; 1", "invalid cutting-planes derivation";
      "s 1 01", "model length 2, problem has 3 variables";
      "s 1 0x1", "bad model bit 'x'";
      "s 1 100", "solution violates a constraint";
      "s 1 110", "solution costs 2, step claims 1";
      "d 0 1", "unknown step \"d\"";
      "s 1", "unknown step \"s\"";
      "uu 1 0", "unknown step \"uu\"";
      "c MAYBE", "unknown conclusion \"MAYBE\"";
      "f 1", "duplicate 'f' line";
    ]
  in
  List.iter
    (fun (line, msg) ->
      match Proof.Check.check_string problem (proof_of [ line ] 1) with
      | Ok _ -> Alcotest.failf "%S accepted" line
      | Error got -> Alcotest.(check string) line ("line 3: " ^ msg) got
      | exception e -> Alcotest.failf "%S raised %s" line (Printexc.to_string e))
    table

(* Tokens that are not plain decimals go through [int_of_string_opt]:
   [0x1] is x1 and [-0x2] is ~x2, as they always were. *)
let non_decimal_tokens () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0 ];
  Problem.Builder.add_clause b [ Lit.neg 0; Lit.neg 1 ];
  let problem = Problem.Builder.build b in
  accept problem [ "u 0x1 0"; "u -0x2 0"; "u 0b1 0" ] "hexadecimal and binary literals";
  accept problem [ "u  1   0" ] "repeated spaces";
  reject_at problem [ "u 0x2 0" ] 0 "hexadecimal literal that is not RUP"

(* --- certificate validation oracle --------------------------------------- *)

(* The dense validation the logger and the checker used before it was
   made sparse: three fresh arrays per call and a walk over every
   variable. *)
module Certify_ref = struct
  exception Overflow

  let add_exn a b =
    let s = a + b in
    if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then raise Overflow;
    s

  let mul_exn a b =
    if a = 0 || b = 0 then 0
    else begin
      let p = a * b in
      if p / b <> a then raise Overflow;
      p
    end

  let pinning nvars omega =
    let pins = Array.make nvars 0 in
    let tauto = ref false in
    List.iter
      (fun l ->
        let v = Lit.var l in
        if v >= 0 && v < nvars then begin
          let want = if Lit.is_pos l then 2 else 1 in
          if pins.(v) <> 0 && pins.(v) <> want then tauto := true else pins.(v) <- want
        end)
      omega;
    if !tauto then None else Some pins

  let certify problem ~derived ~refs ~omega ~objective ~upper =
    let denom = Proof.denom in
    let nvars = Problem.nvars problem in
    let constraints = Problem.constraints problem in
    let n = Array.length constraints in
    let resolve cid =
      if cid >= 0 then (if cid < n then Some constraints.(cid) else None)
      else
        let k = -cid - 1 in
        if k < Array.length derived then Some derived.(k) else None
    in
    try
      if List.exists (fun (cid, m) -> m < 0 || resolve cid = None) refs then raise Exit;
      match pinning nvars omega with
      | None -> true
      | Some pins ->
        let a = Array.make (2 * nvars) 0 in
        let base = ref 0 in
        List.iter
          (fun (cid, m) ->
            if m > 0 then begin
              let c = match resolve cid with Some c -> c | None -> raise Exit in
              base := add_exn !base (mul_exn m (Constr.degree c));
              Array.iter
                (fun (t : Constr.term) ->
                  let i = Lit.to_index t.lit in
                  a.(i) <- add_exn a.(i) (mul_exn m t.coeff))
                (Constr.terms c)
            end)
          refs;
        let gamma = Array.make (2 * nvars) 0 in
        if objective then (
          match Problem.objective problem with
          | None -> ()
          | Some o ->
            Array.iter
              (fun (ct : Problem.cost_term) -> gamma.(Lit.to_index ct.lit) <- ct.cost)
              o.cost_terms);
        let total = ref !base in
        for v = 0 to nvars - 1 do
          let term positive =
            let i = Lit.to_index (Lit.make v positive) in
            add_exn (mul_exn denom gamma.(i)) (-a.(i))
          in
          let t =
            match pins.(v) with
            | 1 -> term true
            | 2 -> term false
            | _ -> min (term true) (term false)
          in
          total := add_exn !total t
        done;
        if objective then !total > mul_exn (upper - 1) denom else !total > 0
    with Overflow | Exit -> false
end

let ref_token (c, m) = if c >= 0 then Printf.sprintf "%d:%d" c m else Printf.sprintf "x%d:%d" (-c - 1) m

let cert_step kind refs omega =
  String.concat " "
    ((kind :: List.map ref_token refs)
    @ (";" :: List.map (fun l -> string_of_int (Proof.lit_to_int l)) omega)
    @ [ "0" ])

(* A random problem, a few verified solutions and [j] derivations made
   by a real logger (so the derived table is the checker's), then one
   [b] or [y] step with random references (original, derived, dangling,
   zero multipliers, multipliers up to 2^30) and a random omega
   (sometimes tautological).  The checker's verdict on that step must be
   the oracle's, or acceptance when the root is already closed. *)
let certify_matches_reference seed =
  let rng = Random.State.make [| seed; 0xce47 |] in
  let problem, lit = gen_problem rng in
  let ncons = Array.length (Problem.constraints problem) in
  let models = Array.of_list (all_models problem) in
  let buf = Buffer.create 256 in
  let logger = Proof.create (Proof.Sink.of_buffer buf) problem in
  let offset = match Problem.objective problem with Some o -> o.offset | None -> 0 in
  let upper = ref (Problem.max_cost_sum problem + 1) in
  let derived = ref [] in
  for _ = 1 to Random.State.int rng 5 do
    match Random.State.int rng 2 with
    | 0 when Array.length models > 0 ->
      let m = models.(Random.State.int rng (Array.length models)) in
      let cost = Model.cost problem m in
      upper := min !upper (cost - offset);
      Proof.log_solution logger ~cost m
    | _ -> (
      let nref = 1 + Random.State.int rng 3 in
      let refs =
        List.init nref (fun _ ->
            let r =
              match Random.State.int rng 3 with
              | 0 when !derived <> [] -> Proof.Rderived (Random.State.int rng (List.length !derived))
              | 1 -> Proof.Rlit (lit ())
              | _ -> Proof.Rcid (Random.State.int rng (max 1 ncons))
            in
            r, 1 + Random.State.int rng 3)
      in
      match Proof.log_derived logger ~refs ~divisor:(1 + Random.State.int rng 3) with
      | Some (_, c) -> derived := !derived @ [ c ]
      | None -> ())
  done;
  let derived = Array.of_list !derived in
  let prefix = ref (String.split_on_char '\n' (Buffer.contents buf) |> List.filter (( <> ) "")) in
  let text extra = String.concat "\n" (!prefix @ extra @ [ "c NONE"; "" ]) in
  let fresh_certificate () =
    let refs =
      List.init (Random.State.int rng 5) (fun _ ->
          let cid =
            match Random.State.int rng 4 with
            | 0 -> -1 - Random.State.int rng (Array.length derived + 1)
            | _ -> Random.State.int rng (max 1 ncons)
          in
          let m =
            match Random.State.int rng 5 with
            | 0 -> 0
            | 1 -> 1 + Random.State.int rng ((1 lsl 30) - 1)
            | 2 -> Proof.denom * (1 + Random.State.int rng 3)
            | _ -> 1 + Random.State.int rng (4 * Proof.denom)
          in
          cid, m)
    in
    let omega =
      let base = List.init (Random.State.int rng 4) (fun _ -> lit ()) in
      if Random.State.int rng 8 = 0 && base <> [] then Lit.negate (List.hd base) :: base else base
    in
    refs, omega, Random.State.bool rng
  in
  (* Several certificate steps in a row, so that each validation runs on
     scratch the previous ones used (half of them repeat the previous
     certificate); an accepted step stays in the proof. *)
  let last = ref None in
  for _ = 1 to 1 + Random.State.int rng 4 do
    let refs, omega, objective =
      match !last with Some c when Random.State.bool rng -> c | _ -> fresh_certificate ()
    in
    last := Some (refs, omega, objective);
    let closed = Result.is_ok (Proof.Check.check_string problem (text [ "u 0" ])) in
    let expected =
      closed || Certify_ref.certify problem ~derived ~refs ~omega ~objective ~upper:!upper
    in
    let step = cert_step (if objective then "b" else "y") refs omega in
    let got = Proof.Check.check_string problem (text [ step ]) in
    if Result.is_ok got <> expected then
      QCheck2.Test.fail_reportf "%s: checker %s, reference %b (closed %b) after:\n%s" step
        (match got with Ok _ -> "accepts" | Error e -> e)
        expected closed (String.concat "\n" !prefix);
    if expected then prefix := !prefix @ [ step ]
  done;
  true

let qcheck_certify =
  QCheck2.Test.make ~name:"certificate validation agrees with the dense reference" ~count:1000
    QCheck2.Gen.(int_bound 1_000_000)
    certify_matches_reference

(* A multiplier whose product with a coefficient overflows is rejected
   by both validations. *)
let certify_overflow () =
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_ge b [ (3, Lit.pos 0); (2, Lit.pos 1); (1, Lit.pos 2) ] 4;
  Problem.Builder.set_objective b (List.init 3 (fun v -> 1, Lit.pos v));
  let problem = Problem.Builder.build b in
  List.iter
    (fun (m, objective) ->
      let refs = [ (0, m) ] and omega = [ Lit.pos 0 ] in
      Alcotest.(check bool) "reference rejects" false
        (Certify_ref.certify problem ~derived:[||] ~refs ~omega ~objective ~upper:4);
      reject_at problem [ cert_step (if objective then "b" else "y") refs omega ] 0
        "overflowing multiplier")
    [ (max_int, true); (max_int, false); ((max_int / 2) + 1, true); (1 lsl 61, false) ]

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

(* An import is a verified solution step of the importer's own section:
   an oracle publishes the optimum and logs nothing, and the bsolo
   member's section holds the imported model as an [s] step, closes its
   search and concludes OPTIMAL on its own — no [i] line anywhere. *)
let portfolio_import_proof () =
  let problem = Gen.covering ~nvars:18 ~nclauses:30 5 in
  let model, opt =
    match Bsolo.Exhaustive.optimum problem with
    | Some (m, c) -> m, c
    | None -> Alcotest.fail "instance should be satisfiable"
  in
  let path = Filename.temp_file "bsolo_test" ".pbp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r =
        Portfolio.solve ~proof_file:path
          ~entries:[ Gen.publisher "oracle" model opt; Gen.importer ]
          ~jobs:2 ~budget:20.0 problem
      in
      Alcotest.(check string) "bsolo wins" "bsolo" r.Portfolio.winner;
      let text = In_channel.with_open_bin path In_channel.input_all in
      let ls = lines text in
      let starts prefix l = String.starts_with ~prefix l in
      Alcotest.(check (list string)) "no i step" [] (List.filter (starts "i ") ls);
      (* the bsolo section: from its marker to the next marker or the claim *)
      let rec section acc = function
        | [] -> List.rev acc
        | l :: _ when acc <> [] && (starts "m " l || starts "F " l) -> List.rev acc
        | l :: rest when acc <> [] -> section (l :: acc) rest
        | l :: rest -> section (if l = "m bsolo" then [ l ] else []) rest
      in
      let own = section [] ls in
      Alcotest.(check bool) "the imported model is a verified step of the section" true
        (List.exists (starts (Printf.sprintf "s %d " opt)) own);
      Alcotest.(check (list string)) "the section concludes on its own"
        [ "c OPTIMAL " ^ string_of_int opt ]
        (List.filter (starts "c ") own);
      Alcotest.(check string) "checkproof verifies it" ("OPTIMAL " ^ string_of_int opt)
        (check_ok problem text).verdict)

(* --- objective costs at the limits ------------------------------------------ *)

(* Every problem the builder accepts solves and checks without an
   exception escaping, up to the cost limits: costs near and beyond
   [Constr.coefficient_limit], both signs, repeated variables, sums near
   [Constr.degree_limit].  An objective beyond the limits is refused by
   [set_objective] itself, before any incumbent cut is built.  Accepted
   instances must reach the brute-force optimum under the default, MIS
   and PBS options, their proofs must check, and so must a log holding
   just the optimum as an [s] step. *)
let qcheck_extreme_costs =
  let limit = Constr.coefficient_limit in
  let magnitudes = [| 1; 3; 1 lsl 20; limit / 2; limit - 1; limit; limit; limit + 1; 1 lsl 50 |] in
  QCheck2.Test.make ~name:"no exception escapes solve or check at extreme costs" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xc057 |] in
      let nvars = 6 in
      let b = Problem.Builder.create ~nvars () in
      for _ = 1 to 3 do
        let lits = List.init (2 + Random.State.int rng 3) (fun _ -> Gen.lit_of rng nvars) in
        Problem.Builder.add_cardinality b lits (1 + Random.State.int rng 2)
      done;
      (* and one that forces many costs at once, so that incumbents can
         cost more than [Constr.degree_limit] *)
      Problem.Builder.add_cardinality b
        (List.init nvars Lit.pos)
        (1 + Random.State.int rng (nvars - 1));
      let term v =
        let c = magnitudes.(Random.State.int rng (Array.length magnitudes)) in
        (if Random.State.int rng 5 = 0 then -c else c), Lit.make v (Random.State.int rng 5 > 0)
      in
      (* most variables get a cost, a few get two that merge *)
      let raw =
        List.concat
          (List.init nvars (fun v ->
               match Random.State.int rng 8 with
               | 0 -> []
               | 1 -> [ term v; term v ]
               | _ -> [ term v ]))
      in
      match Problem.Builder.set_objective b raw with
      | exception Invalid_argument msg ->
        if msg <> "Problem.Builder.set_objective: cost too large" then
          QCheck2.Test.fail_reportf "unexpected refusal %S" msg;
        true
      | () ->
        let problem = Problem.Builder.build b in
        let expected = Option.map snd (Bsolo.Exhaustive.optimum problem) in
        List.iter
          (fun (name, options) ->
            let o, text = solve_with_proof ~options problem in
            if Bsolo.Outcome.best_cost o <> expected then
              QCheck2.Test.fail_reportf "%s: optimum differs from brute force" name;
            match Proof.Check.check_string problem text with
            | Ok s -> verdict_matches o s
            | Error msg -> QCheck2.Test.fail_reportf "%s: proof rejected: %s" name msg)
          [
            "default", Bsolo.Options.default;
            "mis", Bsolo.Options.with_lb Bsolo.Options.Mis;
            "pbs", Bsolo.Options.pbs;
          ];
        (match Bsolo.Exhaustive.optimum problem with
        | None -> ()
        | Some (m, cost) ->
          let bits = String.init nvars (fun v -> if Model.value m v then '1' else '0') in
          let text =
            Printf.sprintf "p bsolo-pbp 1\nf %d\ns %d %s\n"
              (Array.length (Problem.constraints problem))
              cost bits
          in
          (* no conclusion line, so an [Error]; what matters is that it
             is a value, not an exception *)
          ignore (Proof.Check.check_string problem text));
        true)

let huge_cost_refused () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_ge b [ 1, Lit.pos 0; 1, Lit.pos 1 ] 1;
  Alcotest.check_raises "cost 2^50"
    (Invalid_argument "Problem.Builder.set_objective: cost too large") (fun () ->
      Problem.Builder.set_objective b [ 1 lsl 50, Lit.pos 0; 1, Lit.pos 1 ])

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
    Alcotest.test_case "removed i step and BOUNDS rejected" `Quick mutation_removed_steps;
    Alcotest.test_case "objective cut mirrors knapsack" `Quick objective_cut_matches;
    Alcotest.test_case "cardinality cuts mirror knapsack" `Quick cardinality_cut_matches;
    Alcotest.test_case "j steps round-trip" `Quick j_step_roundtrip;
    Alcotest.test_case "weakened derivation rejected" `Quick mutation_weakened_derivation;
    Alcotest.test_case "tautological u step accepted" `Quick tautological_rup;
    Alcotest.test_case "u step needs the tighter objective cut" `Quick objective_cut_order;
    Alcotest.test_case "u step needs the tighter d cut" `Quick cardinality_cut_order;
    Alcotest.test_case "knap dropped literal rejected at its line" `Slow knap_dropped_literal;
    QCheck_alcotest.to_alcotest qcheck_differential;
    Alcotest.test_case "tightened d cut matches a fresh one" `Quick tightened_cut_matches_fresh;
    Alcotest.test_case "saturated cut is added fresh" `Quick saturated_cut_added_fresh;
    Alcotest.test_case "malformed lines are clean errors" `Quick malformed_lines;
    Alcotest.test_case "non-decimal tokens keep their verdicts" `Quick non_decimal_tokens;
    QCheck_alcotest.to_alcotest qcheck_certify;
    Alcotest.test_case "overflowing multiplier rejected" `Quick certify_overflow;
    Alcotest.test_case "sequential portfolio proof stitches" `Quick (portfolio_proof 1);
    Alcotest.test_case "parallel portfolio proof stitches" `Quick (portfolio_proof 2);
    Alcotest.test_case "imported optimum checks in the importer's section" `Quick
      portfolio_import_proof;
    Alcotest.test_case "objective cost beyond the limit refused" `Quick huge_cost_refused;
    QCheck_alcotest.to_alcotest qcheck_extreme_costs;
  ]
