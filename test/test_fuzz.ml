(* Fuzzing the parsers: arbitrary input must either parse or raise the
   module's [Parse_error], never crash or loop. *)

let random_text rng len alphabet =
  String.init len (fun _ -> alphabet.[Random.State.int rng (String.length alphabet)])

let opb_fuzz () =
  let rng = Random.State.make [| 0xf22 |] in
  let alphabet = "0123456789 x~+-<>=;*\nmin:" in
  for _ = 1 to 3000 do
    let text = random_text rng (Random.State.int rng 60) alphabet in
    match Pbo.Opb.parse_string text with
    | (_ : Pbo.Problem.t) -> ()
    | exception Pbo.Opb.Parse_error _ -> ()
  done

let dimacs_fuzz () =
  let rng = Random.State.make [| 0xd1 |] in
  let alphabet = "0123456789 -pc wcnf\n" in
  for _ = 1 to 3000 do
    let text = random_text rng (Random.State.int rng 60) alphabet in
    match Pbo.Dimacs.parse_string text with
    | (_ : Pbo.Problem.t) -> ()
    | exception Pbo.Dimacs.Parse_error _ -> ()
  done

(* Structured fuzz: parse output of the printer with random mutations that
   keep the token structure valid. *)
let opb_structured_fuzz () =
  for seed = 0 to 30 do
    let p = Gen.problem seed in
    let text = Pbo.Opb.to_string p in
    (* inject whitespace and blank lines: must still parse identically *)
    let padded =
      String.concat "\n"
        (List.concat_map (fun line -> [ ""; " " ^ line ]) (String.split_on_char '\n' text))
    in
    match Pbo.Opb.parse_string padded with
    | p' ->
      if Array.length (Pbo.Problem.constraints p') <> Array.length (Pbo.Problem.constraints p)
      then Alcotest.failf "seed %d: whitespace changed the parse" seed
    | exception Pbo.Opb.Parse_error e -> Alcotest.failf "seed %d: %s" seed e
  done

(* Inputs past the integer range or the engine's coefficient limit are
   rejected with the offending line, not an exception from deep inside
   the parser or the constraint builder. *)
let opb_oversized () =
  List.iter
    (fun (text, line) ->
      match Pbo.Opb.parse_string text with
      | (_ : Pbo.Problem.t) -> Alcotest.failf "accepted %S" text
      | exception Pbo.Opb.Parse_error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names line %d: %s" text line e)
          true
          (String.starts_with ~prefix:(Printf.sprintf "line %d:" line) e))
    [
      "min: +1 x1 ;\n+12345678901234567890 x1 >= 1 ;", 2;
      "+1 x12345678901234567890 >= 1 ;", 1;
      "+1 x1 >= 99999999999999999999 ;", 1;
      "min: +1 x1 ;\n+2000000000000 x1 +1 x2 >= 1 ;", 2;
      "min: +2000000000000 x1 ;\n+1 x1 >= 1 ;", 1;
      "-4611686018427387904 x1 >= 1 ;", 1;
      "+1 x1 >= 5000000000000 ;", 1;
      "min: +1 x1 ;\nmin: +1 x2 ;", 2;
      "+1 x1 +1 x99999999999 >= 1 ;", 1;
      "min: +1 x1 ;\n+1 x1 >= 1 ;\n+1 ~x16777217 >= 1 ;", 3;
    ];
  (* the limit itself is accepted *)
  ignore (Pbo.Opb.parse_string "+1099511627776 x1 +1 x2 >= 1 ;")

let suite =
  [
    Alcotest.test_case "opb fuzz" `Quick opb_fuzz;
    Alcotest.test_case "dimacs fuzz" `Quick dimacs_fuzz;
    Alcotest.test_case "opb whitespace robustness" `Quick opb_structured_fuzz;
    Alcotest.test_case "opb oversized integers" `Quick opb_oversized;
  ]
