open Pbo

(* Evaluate a raw (unnormalized) >= constraint directly. *)
let raw_holds terms rhs assign =
  let lit_true l = if Lit.is_pos l then assign (Lit.var l) else not (assign (Lit.var l)) in
  List.fold_left (fun acc (c, l) -> if lit_true l then acc + c else acc) 0 terms >= rhs

let norm_holds norm assign =
  let lit_true l = if Lit.is_pos l then assign (Lit.var l) else not (assign (Lit.var l)) in
  match norm with
  | Constr.Trivial_true -> true
  | Constr.Trivial_false -> false
  | Constr.Constr c -> Constr.satisfied_by lit_true c

let all_assignments nvars f =
  for mask = 0 to (1 lsl nvars) - 1 do
    f (fun v -> (mask lsr v) land 1 = 1)
  done

let expect_constr = function
  | Constr.Constr c -> c
  | Constr.Trivial_true -> Alcotest.fail "expected a constraint, got trivial-true"
  | Constr.Trivial_false -> Alcotest.fail "expected a constraint, got trivial-false"

let merge_polarities () =
  (* 3 x0 + 2 ~x0 >= 4  ==  2 + x0 >= 4  ==  x0 >= 2: trivially false *)
  (match Constr.make_ge [ 3, Lit.pos 0; 2, Lit.neg 0 ] 4 with
  | Constr.Trivial_false -> ()
  | Constr.Trivial_true | Constr.Constr _ -> Alcotest.fail "expected trivial-false");
  (* 3 x0 + 2 ~x0 >= 3  ==  x0 >= 1 *)
  let c = expect_constr (Constr.make_ge [ 3, Lit.pos 0; 2, Lit.neg 0 ] 3) in
  Alcotest.(check int) "degree" 1 (Constr.degree c);
  Alcotest.(check int) "size" 1 (Constr.size c)

let negative_coefficients () =
  (* -2 x0 + 3 x1 >= 1  ==  2 ~x0 + 3 x1 >= 3 *)
  let c = expect_constr (Constr.make_ge [ -2, Lit.pos 0; 3, Lit.pos 1 ] 1) in
  Alcotest.(check int) "degree" 3 (Constr.degree c);
  Alcotest.(check bool) "has ~x0" true
    (Constr.fold_lits (fun l acc -> acc || Lit.equal l (Lit.neg 0)) c false)

let saturation () =
  (* 10 x0 + 1 x1 >= 2: the 10 saturates to 2, then gcd 1 *)
  let c = expect_constr (Constr.make_ge [ 10, Lit.pos 0; 1, Lit.pos 1 ] 2) in
  Alcotest.(check int) "max coeff" 2 (Constr.max_coeff c)

let gcd_reduction () =
  (* 4 x0 + 6 x1 >= 5 -> saturate: 4,5 -> gcd 1 stays; try pure gcd:
     4 x0 + 4 x1 >= 4 -> x0 + x1 >= 1 *)
  let c = expect_constr (Constr.make_ge [ 4, Lit.pos 0; 4, Lit.pos 1 ] 4) in
  Alcotest.(check int) "degree" 1 (Constr.degree c);
  Alcotest.(check bool) "clause" true (Constr.is_clause c)

let trivial_cases () =
  (match Constr.make_ge [ 1, Lit.pos 0 ] 0 with
  | Constr.Trivial_true -> ()
  | Constr.Trivial_false | Constr.Constr _ -> Alcotest.fail "rhs 0 is trivially true");
  (match Constr.make_ge [ 1, Lit.pos 0; 1, Lit.pos 1 ] 3 with
  | Constr.Trivial_false -> ()
  | Constr.Trivial_true | Constr.Constr _ -> Alcotest.fail "unreachable rhs is trivially false");
  match Constr.make_ge [] 1 with
  | Constr.Trivial_false -> ()
  | Constr.Trivial_true | Constr.Constr _ -> Alcotest.fail "empty >= 1 is trivially false"

let classification () =
  let clause = expect_constr (Constr.clause [ Lit.pos 0; Lit.neg 1; Lit.pos 2 ]) in
  Alcotest.(check bool) "clause" true (Constr.is_clause clause);
  Alcotest.(check bool) "clause is cardinality" true (Constr.is_cardinality clause);
  let card = expect_constr (Constr.cardinality [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ] 2) in
  Alcotest.(check bool) "card not clause" false (Constr.is_clause card);
  Alcotest.(check bool) "cardinality" true (Constr.is_cardinality card);
  let pb = expect_constr (Constr.make_ge [ 3, Lit.pos 0; 2, Lit.pos 1; 1, Lit.pos 2 ] 4) in
  Alcotest.(check bool) "pb not cardinality" false (Constr.is_cardinality pb)

let min_true_count () =
  let pb = expect_constr (Constr.make_ge [ 3, Lit.pos 0; 2, Lit.pos 1; 2, Lit.pos 2 ] 4) in
  (* one literal cannot reach 4 after saturation (coeffs 3,2,2); two can *)
  Alcotest.(check int) "r" 2 (Constr.min_true_count pb);
  let clause = expect_constr (Constr.clause [ Lit.pos 0; Lit.pos 1 ]) in
  Alcotest.(check int) "clause r" 1 (Constr.min_true_count clause)

let terms_sorted () =
  let c = expect_constr (Constr.make_ge [ 1, Lit.pos 0; 3, Lit.pos 1; 2, Lit.pos 2 ] 4) in
  let coeffs = Array.to_list (Array.map (fun t -> t.Constr.coeff) (Constr.terms c)) in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> compare b a) coeffs) coeffs

let slack_semantics () =
  let c = expect_constr (Constr.make_ge [ 3, Lit.pos 0; 2, Lit.pos 1; 2, Lit.neg 2 ] 4) in
  let value l =
    (* x0 false, x1 unknown, x2 true (so ~x2 false) *)
    match Lit.var l, Lit.is_pos l with
    | 0, true -> Value.False
    | 0, false -> Value.True
    | 1, (true | false) -> Value.Unknown
    | 2, true -> Value.True
    | 2, false -> Value.False
    | _, (true | false) -> Value.Unknown
  in
  (* remaining weight: x1's 2; degree 4 -> slack = 2 - 4 = -2 *)
  Alcotest.(check int) "slack" (-2) (Constr.slack_under value c);
  Alcotest.(check bool) "not satisfied" false (Constr.is_satisfied_under value c)

let relations () =
  (* x0 + x1 <= 1  ==  ~x0 + ~x1 >= 1 *)
  (match Constr.of_relation [ 1, Lit.pos 0; 1, Lit.pos 1 ] Constr.Le 1 with
  | [ norm ] ->
    let c = expect_constr norm in
    Alcotest.(check bool) "clause over negations" true (Constr.is_clause c);
    Alcotest.(check bool) "negated lits" true
      (Constr.fold_lits (fun l acc -> acc && not (Lit.is_pos l)) c true)
  | [] | _ :: _ :: _ -> Alcotest.fail "Le yields one result");
  match Constr.of_relation [ 1, Lit.pos 0; 1, Lit.pos 1 ] Constr.Eq 1 with
  | [ _; _ ] -> ()
  | [] | [ _ ] | _ :: _ :: _ :: _ -> Alcotest.fail "Eq yields two results"

(* qcheck: normalization preserves semantics over all assignments. *)
let qcheck_semantics =
  let gen =
    QCheck2.Gen.(
      let term = pair (int_range (-5) 5) (map2 Lit.make (int_range 0 4) bool) in
      pair (list_size (int_range 0 6) term) (int_range (-6) 10))
  in
  QCheck2.Test.make ~name:"normalization preserves semantics" ~count:500 gen (fun (terms, rhs) ->
      let norm = Constr.make_ge terms rhs in
      let ok = ref true in
      all_assignments 5 (fun assign ->
          if raw_holds terms rhs assign <> norm_holds norm assign then ok := false);
      !ok)

let qcheck_eq_semantics =
  let gen =
    QCheck2.Gen.(
      let term = pair (int_range (-4) 4) (map2 Lit.make (int_range 0 3) bool) in
      pair (list_size (int_range 0 5) term) (int_range (-5) 8))
  in
  QCheck2.Test.make ~name:"Eq splits into two sound halves" ~count:300 gen (fun (terms, rhs) ->
      let norms = Constr.of_relation terms Constr.Eq rhs in
      let raw_eq assign =
        let lit_true l = if Lit.is_pos l then assign (Lit.var l) else not (assign (Lit.var l)) in
        List.fold_left (fun acc (c, l) -> if lit_true l then acc + c else acc) 0 terms = rhs
      in
      let ok = ref true in
      all_assignments 4 (fun assign ->
          let holds = List.for_all (fun n -> norm_holds n assign) norms in
          if holds <> raw_eq assign then ok := false);
      !ok)

let qcheck_idempotent =
  let gen =
    QCheck2.Gen.(
      let term = pair (int_range 1 6) (map2 Lit.make (int_range 0 4) bool) in
      pair (list_size (int_range 1 6) term) (int_range 1 10))
  in
  QCheck2.Test.make ~name:"normalization is idempotent" ~count:500 gen (fun (terms, rhs) ->
      match Constr.make_ge terms rhs with
      | Constr.Trivial_true | Constr.Trivial_false -> true
      | Constr.Constr c ->
        let again =
          Constr.make_ge
            (Array.to_list (Array.map (fun t -> t.Constr.coeff, t.Constr.lit) (Constr.terms c)))
            (Constr.degree c)
        in
        (match again with
        | Constr.Constr c' -> Constr.equal c c'
        | Constr.Trivial_true | Constr.Trivial_false -> false))

let qcheck_min_true_count =
  let gen =
    QCheck2.Gen.(
      let term = pair (int_range 1 6) (map Lit.pos (int_range 0 4)) in
      pair (list_size (int_range 1 5) term) (int_range 1 12))
  in
  QCheck2.Test.make ~name:"min_true_count is tight" ~count:300 gen (fun (terms, rhs) ->
      (* distinct vars for clarity *)
      let dedup = List.sort_uniq (fun (_, l1) (_, l2) -> Lit.compare l1 l2) terms in
      match Constr.make_ge dedup rhs with
      | Constr.Trivial_true | Constr.Trivial_false -> true
      | Constr.Constr c ->
        let r = Constr.min_true_count c in
        let nvars = 5 in
        let best = ref max_int in
        all_assignments nvars (fun assign ->
            let lit_true l = if Lit.is_pos l then assign (Lit.var l) else not (assign (Lit.var l)) in
            if Constr.satisfied_by lit_true c then begin
              let count =
                Constr.fold_lits (fun l acc -> if lit_true l then acc + 1 else acc) c 0
              in
              if count < !best then best := count
            end);
        !best = r)

let suite =
  [
    Alcotest.test_case "merge polarities" `Quick merge_polarities;
    Alcotest.test_case "negative coefficients" `Quick negative_coefficients;
    Alcotest.test_case "saturation" `Quick saturation;
    Alcotest.test_case "gcd reduction" `Quick gcd_reduction;
    Alcotest.test_case "trivial cases" `Quick trivial_cases;
    Alcotest.test_case "classification" `Quick classification;
    Alcotest.test_case "min_true_count" `Quick min_true_count;
    Alcotest.test_case "terms sorted" `Quick terms_sorted;
    Alcotest.test_case "slack semantics" `Quick slack_semantics;
    Alcotest.test_case "relations" `Quick relations;
    QCheck_alcotest.to_alcotest qcheck_semantics;
    QCheck_alcotest.to_alcotest qcheck_eq_semantics;
    QCheck_alcotest.to_alcotest qcheck_idempotent;
    QCheck_alcotest.to_alcotest qcheck_min_true_count;
  ]

let overflow_guard () =
  Alcotest.check_raises "huge coefficient"
    (Invalid_argument "Constr.make_ge: coefficient too large") (fun () ->
      ignore (Constr.make_ge [ 1 lsl 41, Lit.pos 0 ] 1));
  Alcotest.check_raises "huge degree" (Invalid_argument "Constr.make_ge: degree too large")
    (fun () -> ignore (Constr.make_ge [ 1, Lit.pos 0 ] (1 lsl 43)));
  (* values at the boundary still work *)
  match Constr.make_ge [ 1 lsl 40, Lit.pos 0 ] 1 with
  | Constr.Constr _ -> ()
  | Constr.Trivial_true | Constr.Trivial_false -> Alcotest.fail "boundary rejected"

let suite = suite @ [ Alcotest.test_case "overflow guard" `Quick overflow_guard ]

(* Structural invariants of the normal form. *)
let qcheck_normal_form =
  let gen =
    QCheck2.Gen.(
      let term = pair (int_range (-9) 9) (map2 Lit.make (int_range 0 5) bool) in
      pair (list_size (int_range 1 7) term) (int_range (-9) 14))
  in
  QCheck2.Test.make ~name:"normal form invariants" ~count:500 gen (fun (terms, rhs) ->
      match Constr.make_ge terms rhs with
      | Constr.Trivial_true | Constr.Trivial_false -> true
      | Constr.Constr c ->
        let ts = Constr.terms c in
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        let g = Array.fold_left (fun acc t -> gcd acc t.Constr.coeff) 0 ts in
        let positive = Array.for_all (fun t -> t.Constr.coeff > 0) ts in
        let saturated = Array.for_all (fun t -> t.Constr.coeff <= Constr.degree c) ts in
        let sorted = ref true in
        for i = 0 to Array.length ts - 2 do
          if ts.(i).Constr.coeff < ts.(i + 1).Constr.coeff then sorted := false
        done;
        let distinct_vars =
          let vars = Array.to_list (Array.map (fun t -> Lit.var t.Constr.lit) ts) in
          List.length (List.sort_uniq compare vars) = Array.length ts
        in
        positive && saturated && !sorted && distinct_vars && g = 1
        && Constr.degree c >= 1
        && Constr.coeff_sum c >= Constr.degree c)

let suite = suite @ [ QCheck_alcotest.to_alcotest qcheck_normal_form ]

(* A family answers every bound exactly as [of_relation ... Le], on the
   constant-time path (distinct variables, positive coefficients) and on
   the fallback (repeated variables, non-positive coefficients), at
   bounds on both sides of the saturation threshold. *)
let qcheck_family =
  let gen =
    QCheck2.Gen.(
      let term = pair (int_range (-3) 12) (map2 Lit.make (int_range 0 7) bool) in
      pair (list_size (int_range 0 8) term) (list_size (int_range 1 12) (int_range (-5) 60)))
  in
  QCheck2.Test.make ~name:"family_at agrees with of_relation" ~count:1000 gen (fun (terms, rs) ->
      let f = Constr.family terms in
      List.for_all
        (fun r ->
          match Constr.family_at f r, Constr.of_relation terms Constr.Le r with
          | Constr.Trivial_true, [ Constr.Trivial_true ]
          | Constr.Trivial_false, [ Constr.Trivial_false ] ->
            true
          | Constr.Constr a, [ Constr.Constr b ] -> Constr.equal a b
          | _ -> false)
        rs)

(* Unsaturated bounds share one term array; [with_degree] shares too
   and refuses to break saturation. *)
let family_shares_terms () =
  let f = Constr.family [ 4, Lit.pos 0; 6, Lit.pos 1; 2, Lit.neg 2 ] in
  let a = expect_constr (Constr.family_at f 2) and b = expect_constr (Constr.family_at f 5) in
  Alcotest.(check bool) "shared" true (Constr.terms a == Constr.terms b);
  Alcotest.(check int) "degree at 2" 5 (Constr.degree a);
  let c = Constr.with_degree a 6 in
  Alcotest.(check bool) "with_degree shares" true (Constr.terms c == Constr.terms a);
  Alcotest.check_raises "below maxcoeff" (Invalid_argument "Constr.with_degree") (fun () ->
      ignore (Constr.with_degree a 2))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest qcheck_family;
      Alcotest.test_case "family shares terms" `Quick family_shares_terms;
    ]

(* [clause] builds distinct-variable clauses directly; it must give what
   [make_ge] gives on the same literals at degree 1, term order included,
   also on empty lists, repeated literals and x/~x pairs (the fallback).
   Six variables make repeats and complementary pairs common; 2000 make
   long clauses over distinct variables, which take the direct path. *)
let qcheck_clause =
  let gen =
    QCheck2.Gen.(
      let* nvars = oneofl [ 6; 2000 ] in
      list_size (int_range 0 40) (map2 Lit.make (int_range 0 (nvars - 1)) bool))
  in
  QCheck2.Test.make ~name:"clause agrees with make_ge" ~count:2000 gen (fun lits ->
      match Constr.clause lits, Constr.make_ge (List.map (fun l -> 1, l) lits) 1 with
      | Constr.Trivial_true, Constr.Trivial_true | Constr.Trivial_false, Constr.Trivial_false ->
        true
      | Constr.Constr a, Constr.Constr b -> Constr.equal a b
      | _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest qcheck_clause ]
