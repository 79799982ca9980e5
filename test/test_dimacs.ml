open Pbo

let parse_basic () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let p = Dimacs.parse_string text in
  Alcotest.(check int) "vars" 3 (Problem.nvars p);
  Alcotest.(check int) "clauses" 2 (Array.length (Problem.constraints p));
  Alcotest.(check bool) "satisfaction" true (Problem.is_satisfaction p)

let clause_spanning_lines () =
  let p = Dimacs.parse_string "p cnf 2 1\n1\n2 0\n" in
  Alcotest.(check int) "one clause" 1 (Array.length (Problem.constraints p))

let solves_parsed_instance () =
  (* (x1 | x2) & (~x1 | x2) & (~x2 | x3): satisfiable *)
  let p = Dimacs.parse_string "p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n" in
  let o = Bsolo.Solver.solve p in
  Alcotest.(check string) "sat" "SATISFIABLE" (Bsolo.Outcome.status_name o.status);
  match o.best with
  | Some (m, _) ->
    Alcotest.(check bool) "x2" true (Model.value m 1);
    Alcotest.(check bool) "x3" true (Model.value m 2)
  | None -> Alcotest.fail "model expected"

let detects_unsat () =
  let p = Dimacs.parse_string "p cnf 1 2\n1 0\n-1 0\n" in
  let o = Bsolo.Solver.solve p in
  Alcotest.(check string) "unsat" "UNSATISFIABLE" (Bsolo.Outcome.status_name o.status)

let errors () =
  let expect text =
    match Dimacs.parse_string text with
    | exception Dimacs.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" text
  in
  expect "p cnf x 2\n";
  expect "p dnf 1 1\n1 0\n";
  expect "p cnf 2 1\n1 a 0\n";
  expect "p cnf 2 1\n0\n";  (* empty clause *)
  expect "p cnf 2 1\n1 2\n"  (* unterminated *)

let variables_beyond_header () =
  (* literals may mention variables past the declared count *)
  let p = Dimacs.parse_string "p cnf 1 1\n1 5 0\n" in
  Alcotest.(check int) "vars grow" 5 (Problem.nvars p)

(* Indices past the 2^24 cap, including ones whose [abs] overflows,
   are parse errors naming their line, not an allocation or an
   exception escaping from [Lit]. *)
let oversized_indices () =
  let expect ~line text =
    match Dimacs.parse_string text with
    | exception Dimacs.Parse_error msg ->
      let prefix = Printf.sprintf "line %d:" line in
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%S: message %S does not start with %S" text msg prefix
    | _ -> Alcotest.failf "expected parse error on %S" text
  in
  expect ~line:2 "p cnf 3 1\n1 99999999999 0\n";
  expect ~line:2 "p cnf 3 1\n-16777217 0\n";
  expect ~line:1 "p cnf 99999999999 1\n";
  expect ~line:1 "p cnf 16777217 1\n";
  (* -2^62 = min_int *)
  expect ~line:3 (Printf.sprintf "p cnf 3 1\nc comment\n1 %d 0\n" min_int)

let suite =
  [
    Alcotest.test_case "basic" `Quick parse_basic;
    Alcotest.test_case "clause spanning lines" `Quick clause_spanning_lines;
    Alcotest.test_case "solve parsed" `Quick solves_parsed_instance;
    Alcotest.test_case "unsat" `Quick detects_unsat;
    Alcotest.test_case "errors" `Quick errors;
    Alcotest.test_case "variables beyond header" `Quick variables_beyond_header;
    Alcotest.test_case "oversized indices" `Quick oversized_indices;
  ]
