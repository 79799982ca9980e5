open Pbo

let upper_cut p ~upper = Bsolo.Knapsack.(cut (knapsack_row p) ~upper)

let cardinality_inferences p ~upper =
  List.map (fun row -> Bsolo.Knapsack.cut row ~upper) (Bsolo.Knapsack.cardinality_rows p)

let norm_sat norm m =
  match norm with
  | Constr.Trivial_true -> true
  | Constr.Trivial_false -> false
  | Constr.Constr c -> Constr.satisfied_by (Model.lit_true m) c

(* The knapsack cut (10) must keep exactly the assignments with cost
   (offset excluded) at most upper - 1. *)
let upper_cut_semantics () =
  for seed = 0 to 40 do
    let problem = Gen.covering ~nvars:8 ~nclauses:6 seed in
    let offset = match Problem.objective problem with None -> 0 | Some o -> o.offset in
    let max_cost = Problem.max_cost_sum problem in
    let upper = 1 + (seed mod (max_cost + 1)) in
    let cut = upper_cut problem ~upper in
    for mask = 0 to 255 do
      let m = Model.of_array (Array.init 8 (fun v -> (mask lsr v) land 1 = 1)) in
      let cheap = Model.cost problem m - offset <= upper - 1 in
      if norm_sat cut m <> cheap then
        Alcotest.failf "seed %d upper %d: cut disagrees at mask %d" seed upper mask
    done
  done

(* Every inference (13) must be implied by (problem constraints AND cost
   <= upper - 1): no model below the bound may violate it. *)
let cardinality_inference_sound () =
  for seed = 0 to 40 do
    let problem = Gen.covering ~nvars:8 ~nclauses:6 seed in
    let offset = match Problem.objective problem with None -> 0 | Some o -> o.offset in
    let max_cost = Problem.max_cost_sum problem in
    let upper = 1 + (seed mod (max_cost + 1)) in
    let cuts = cardinality_inferences problem ~upper in
    for mask = 0 to 255 do
      let m = Model.of_array (Array.init 8 (fun v -> (mask lsr v) land 1 = 1)) in
      if Model.satisfies problem m && Model.cost problem m - offset <= upper - 1 then
        List.iter
          (fun cut ->
            if not (norm_sat cut m) then
              Alcotest.failf "seed %d upper %d: inference cuts a good model" seed upper)
          cuts
    done
  done

let inference_requires_cardinality_with_cost () =
  (* a cardinality constraint over zero-cost literals yields no cut *)
  let b = Problem.Builder.create ~nvars:4 () in
  Problem.Builder.add_cardinality b [ Lit.pos 0; Lit.pos 1 ] 1;
  Problem.Builder.set_objective b [ 5, Lit.pos 2; 7, Lit.pos 3 ];
  let p = Problem.Builder.build b in
  Alcotest.(check int) "no cuts" 0 (List.length (cardinality_inferences p ~upper:10));
  (* with costs inside the group, a cut appears *)
  let b2 = Problem.Builder.create ~nvars:4 () in
  Problem.Builder.add_cardinality b2 [ Lit.pos 0; Lit.pos 1 ] 1;
  Problem.Builder.set_objective b2 [ 2, Lit.pos 0; 3, Lit.pos 1; 5, Lit.pos 2 ];
  let p2 = Problem.Builder.build b2 in
  Alcotest.(check int) "one cut" 1 (List.length (cardinality_inferences p2 ~upper:10))

let upper_cut_at_zero () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.set_objective b [ 1, Lit.pos 0 ];
  let p = Problem.Builder.build b in
  match upper_cut p ~upper:0 with
  | Constr.Trivial_false -> ()
  | Constr.Trivial_true | Constr.Constr _ -> Alcotest.fail "upper 0 admits nothing"

(* Costs that share factors, so dropping the variables of [K] often
   changes the gcd of what is left: the filtered row must divide by the
   new gcd, not the objective's. *)
let shared_factor_problem seed =
  let rng = Random.State.make [| seed; 0x9cd |] in
  let nvars = 7 in
  let b = Problem.Builder.create ~nvars () in
  for _ = 1 to 5 do
    let lits =
      List.init (2 + Random.State.int rng 4) (fun _ -> Lit.pos (Random.State.int rng nvars))
    in
    Problem.Builder.add_cardinality b lits (1 + Random.State.int rng 2)
  done;
  let factors = [| 2; 3; 4; 6; 9; 12 |] in
  Problem.Builder.set_objective b
    (List.init nvars (fun v ->
         factors.(Random.State.int rng (Array.length factors)), Lit.pos v));
  Problem.Builder.build b

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let gcd_of = List.fold_left (fun g (c, _) -> gcd g c) 0

(* The prepared rows give, at every bound, exactly the cuts of the
   direct definition: [V] by sorting the costs inside [K], the
   outside-[K] terms by list membership, and a full normalization.  The
   proof checker's rows ({!Proof.cardinality_cut}) give the same cuts. *)
let rows_match_definition () =
  let gcd_changes = ref 0 in
  for seed = 0 to 122 do
    let problem =
      match seed mod 3 with
      | 0 -> Gen.problem seed
      | 1 -> Gen.covering seed
      | _ -> shared_factor_problem seed
    in
    let terms = match Problem.objective problem with None -> [||] | Some o -> o.cost_terms in
    let raw ts = List.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) ts in
    let direct_cardinality cid c ~upper =
      let cost l =
        match Problem.cost_of_var problem (Lit.var l) with
        | Some (k, cl) when Lit.equal cl l -> k
        | Some _ | None -> 0
      in
      let costs = List.sort compare (Constr.fold_lits (fun l acc -> cost l :: acc) c []) in
      let v = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < Constr.degree c) costs) in
      if (not (Constr.is_cardinality c)) || v <= 0 then None
      else begin
        let in_k = Constr.fold_lits (fun l acc -> Lit.var l :: acc) c [] in
        let outside =
          List.filter
            (fun (ct : Problem.cost_term) -> not (List.mem (Lit.var ct.lit) in_k))
            (Array.to_list terms)
        in
        if upper = 0 && gcd_of (raw outside) <> gcd_of (raw (Array.to_list terms)) then
          incr gcd_changes;
        Some (cid, List.hd (Constr.of_relation (raw outside) Constr.Le (upper - 1 - v)))
      end
    in
    let rows = Bsolo.Knapsack.cardinality_rows problem in
    for upper = -1 to Problem.max_cost_sum problem + 1 do
      let direct =
        List.filter_map Fun.id
          (List.mapi
             (fun cid c -> direct_cardinality cid c ~upper)
             (Array.to_list (Problem.constraints problem)))
      in
      let prepared =
        List.map
          (fun (row : Bsolo.Knapsack.row) -> Option.get row.cid, Bsolo.Knapsack.cut row ~upper)
          rows
      in
      let same (c1, n1) (c2, n2) =
        c1 = c2
        &&
        match n1, n2 with
        | Constr.Constr a, Constr.Constr b -> Constr.equal a b
        | Constr.Trivial_true, Constr.Trivial_true | Constr.Trivial_false, Constr.Trivial_false ->
          true
        | _ -> false
      in
      if not (List.length direct = List.length prepared && List.for_all2 same direct prepared) then
        Alcotest.failf "seed %d upper %d: cardinality rows differ from the definition" seed upper;
      let checker =
        List.filter_map
          (fun cid -> Option.map (fun n -> cid, n) (Proof.cardinality_cut problem ~cid ~upper))
          (List.init (Array.length (Problem.constraints problem)) Fun.id)
      in
      if not (List.length checker = List.length prepared && List.for_all2 same checker prepared)
      then Alcotest.failf "seed %d upper %d: checker rows differ from the solver's" seed upper;
      let knap = List.hd (Constr.of_relation (raw (Array.to_list terms)) Constr.Le (upper - 1)) in
      if not (same (0, knap) (0, upper_cut problem ~upper)) then
        Alcotest.failf "seed %d upper %d: knapsack row differs from the definition" seed upper
    done
  done;
  if !gcd_changes < 20 then
    Alcotest.failf "only %d rows drop terms that change the gcd" !gcd_changes

let suite =
  [
    Alcotest.test_case "upper cut semantics" `Quick upper_cut_semantics;
    Alcotest.test_case "cardinality inference sound" `Quick cardinality_inference_sound;
    Alcotest.test_case "inference requires costs in group" `Quick inference_requires_cardinality_with_cost;
    Alcotest.test_case "upper cut at zero" `Quick upper_cut_at_zero;
    Alcotest.test_case "rows match the direct definition" `Quick rows_match_definition;
  ]
