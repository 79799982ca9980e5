open Pbo

let parse_small () =
  let text =
    "* a comment\n\
     min: +2 x1 +3 x2 ;\n\
     +1 x1 +1 x2 >= 1 ;\n\
     +2 x1 +3 ~x2 <= 4 ;\n"
  in
  let p = Opb.parse_string text in
  Alcotest.(check int) "nvars" 2 (Problem.nvars p);
  Alcotest.(check int) "nconstrs" 2 (Array.length (Problem.constraints p));
  Alcotest.(check bool) "has objective" false (Problem.is_satisfaction p)

let parse_equality () =
  let p = Opb.parse_string "+1 x1 +1 x2 = 1 ;\n" in
  Alcotest.(check int) "two constraints from =" 2 (Array.length (Problem.constraints p))

let parse_multiline () =
  let p = Opb.parse_string "+1 x1\n+1 x2\n>= 1 ;\n" in
  Alcotest.(check int) "one constraint" 1 (Array.length (Problem.constraints p))

let parse_no_objective () =
  let p = Opb.parse_string "+1 x1 >= 1 ;\n" in
  Alcotest.(check bool) "satisfaction" true (Problem.is_satisfaction p)

let parse_implicit_coefficient () =
  let p = Opb.parse_string "x1 +2 x2 >= 2 ;\n" in
  Alcotest.(check int) "one constraint" 1 (Array.length (Problem.constraints p))

let parse_errors () =
  let expect_error text =
    match Opb.parse_string text with
    | exception Opb.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" text
  in
  expect_error "+1 x1 >= 1";  (* missing semicolon *)
  expect_error "+1 y1 >= 1 ;";  (* bad variable *)
  expect_error "+1 x0 >= 1 ;";  (* indices start at 1 *)
  expect_error "+1 x1 > 1 ;";  (* bad relation *)
  expect_error "min +1 x1 ;";  (* min without colon *)
  expect_error "+ x1 >= 1 ;"  (* dangling sign *)

let roundtrip_once problem =
  let text = Opb.to_string problem in
  let back = Opb.parse_string text in
  let constraints_equal =
    let c1 = Problem.constraints problem and c2 = Problem.constraints back in
    Array.length c1 = Array.length c2
    && Array.for_all2 (fun a b -> Constr.equal a b) c1 c2
  in
  let objectives_equal =
    match Problem.objective problem, Problem.objective back with
    | None, None -> true
    | Some o1, Some o2 ->
      (* the offset is not representable in OPB; terms must survive *)
      o1.cost_terms = o2.cost_terms
    | None, Some o2 -> Array.length o2.cost_terms = 0
    | Some o1, None -> Array.length o1.cost_terms = 0
  in
  constraints_equal && objectives_equal

let roundtrip_generated () =
  for seed = 0 to 20 do
    if not (roundtrip_once (Gen.problem seed)) then
      Alcotest.failf "roundtrip failed for seed %d" seed
  done

let roundtrip_benchmarks () =
  let check_inst (i : Benchgen.Suite.instance) =
    if not (roundtrip_once i.problem) then Alcotest.failf "roundtrip failed for %s" i.name
  in
  List.iter check_inst (Benchgen.Suite.instances ~scale:0.4 ~per_family:2 ())

let file_io () =
  let path = Filename.temp_file "opbtest" ".opb" in
  let p = Gen.covering 3 in
  Opb.write_file path p;
  let back = Opb.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "vars preserved" (Problem.nvars p) (Problem.nvars back)

let negated_objective_literals () =
  (* printing writes ~x for negative-polarity cost terms; must re-parse *)
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  Problem.Builder.set_objective b [ -3, Lit.pos 0 ];
  let p = Problem.Builder.build b in
  Alcotest.(check bool) "roundtrips" true (roundtrip_once p)

(* A 20k-term row written one term per line parses to the same problem
   as the row on one line (and in linear time: the open statement's
   tokens are not re-appended per line). *)
let parse_long_multiline () =
  let n = 20_000 in
  let terms = List.init n (fun i -> Printf.sprintf "+1 x%d" (i + 1)) in
  let one_line = Opb.parse_string (String.concat " " terms ^ " >= 1 ;\n") in
  let per_line = Opb.parse_string (String.concat "\n" terms ^ "\n>= 1 ;\n") in
  Alcotest.(check int) "nvars" (Problem.nvars one_line) (Problem.nvars per_line);
  let c1 = Problem.constraints one_line and c2 = Problem.constraints per_line in
  Alcotest.(check int) "nconstrs" 1 (Array.length c2);
  Alcotest.(check bool) "same constraints" true
    (Array.length c1 = Array.length c2 && Array.for_all2 Constr.equal c1 c2);
  Alcotest.(check int) "all terms kept" n (Constr.size c2.(0))

let suite =
  [
    Alcotest.test_case "parse small" `Quick parse_small;
    Alcotest.test_case "parse equality" `Quick parse_equality;
    Alcotest.test_case "parse multiline" `Quick parse_multiline;
    Alcotest.test_case "long statement over many lines" `Quick parse_long_multiline;
    Alcotest.test_case "parse satisfaction" `Quick parse_no_objective;
    Alcotest.test_case "implicit coefficient" `Quick parse_implicit_coefficient;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "roundtrip random" `Quick roundtrip_generated;
    Alcotest.test_case "roundtrip benchmarks" `Quick roundtrip_benchmarks;
    Alcotest.test_case "file io" `Quick file_io;
    Alcotest.test_case "negated objective literals" `Quick negated_objective_literals;
  ]

(* PB07 non-linear product terms, linearized with Tseitin variables. *)
let nonlinear_products () =
  (* min x3 s.t. 2(x1 AND x2) + x3 >= 2: optimum sets the product true *)
  let p = Opb.parse_string "min: +1 x3 ;\n+2 x1 x2 +1 x3 >= 2 ;\n" in
  Alcotest.(check bool) "extra product variable" true (Problem.nvars p > 3);
  let o = Bsolo.Solver.solve p in
  Alcotest.(check (option int)) "optimum" (Some 0) (Bsolo.Outcome.best_cost o);
  (match o.best with
  | Some (m, _) ->
    Alcotest.(check bool) "x1" true (Model.value m 0);
    Alcotest.(check bool) "x2" true (Model.value m 1);
    Alcotest.(check bool) "x3" false (Model.value m 2)
  | None -> Alcotest.fail "model expected")

let nonlinear_product_cache () =
  (* the same product in two statements gets a single auxiliary *)
  let p = Opb.parse_string "+1 x1 x2 >= 1 ;\n+1 x1 x2 +1 x3 >= 2 ;\n" in
  Alcotest.(check int) "single auxiliary" 4 (Problem.nvars p)

let nonlinear_objective_product () =
  (* min (x1 AND x2) over clause (x1 | x2): avoid paying by x1 xor x2 *)
  let p = Opb.parse_string "min: +5 x1 x2 ;\n+1 x1 +1 x2 >= 1 ;\n" in
  let o = Bsolo.Solver.solve p in
  Alcotest.(check (option int)) "optimum" (Some 0) (Bsolo.Outcome.best_cost o)

let nonlinear_negated_products () =
  (* product over negated literals: 1*(~x1 AND ~x2) >= 1 forces both false *)
  let p = Opb.parse_string "+1 ~x1 ~x2 >= 1 ;\n" in
  let o = Bsolo.Solver.solve p in
  match o.best with
  | Some (m, _) ->
    Alcotest.(check bool) "x1 false" false (Model.value m 0);
    Alcotest.(check bool) "x2 false" false (Model.value m 1)
  | None -> Alcotest.fail "satisfiable expected"

let suite =
  suite
  @ [
      Alcotest.test_case "nonlinear products" `Quick nonlinear_products;
      Alcotest.test_case "nonlinear product cache" `Quick nonlinear_product_cache;
      Alcotest.test_case "nonlinear objective" `Quick nonlinear_objective_product;
      Alcotest.test_case "nonlinear negated products" `Quick nonlinear_negated_products;
    ]
