open Perf_tier

let close = Alcotest.float 1e-9

(* --- quartiles ------------------------------------------------------------------ *)

(* Expected values are Python's statistics.quantiles(v, n=4). *)
let test_quartiles () =
  let check v (q1, q2, q3) =
    let a, b, c = Stats.quartiles v in
    Alcotest.check close "q1" q1 a;
    Alcotest.check close "q2" q2 b;
    Alcotest.check close "q3" q3 c
  in
  check [ 1.; 2.; 3.; 4.; 5. ] (1.5, 3., 4.5);
  check [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3., 4.5);
  check [ 1.; 2.; 3.; 4. ] (1.25, 2.5, 3.75);
  check [ 10.; 20. ] (7.5, 15., 22.5);
  check [ 3.2; 1.1; 9.7; 4.4; 5.0; 2.8; 7.1 ] (2.8, 4.4, 7.1);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.check close "spread" 1.0 (Stats.spread s)

(* --- compare verdicts --------------------------------------------------------- *)

let summary median spread =
  let half = median *. spread /. 2. in
  { Stats.median; q1 = median -. half; q3 = median +. half; n = 5 }

let lower = { Report.metric = "solve_s"; lower_is_better = true; share = 0.1 }

let verdict b a c = Report.verdict_name (snd (Report.judge b a c))

let test_verdicts () =
  let base = summary 10. 0.02 in
  Alcotest.(check string) "within bound" "unchanged" (verdict lower base (summary 10.5 0.02));
  Alcotest.(check string) "slower" "worse" (verdict lower base (summary 12. 0.02));
  Alcotest.(check string) "faster" "better" (verdict lower base (summary 8. 0.02));
  Alcotest.(check string) "wide baseline" "unresolved"
    (verdict lower (summary 10. 0.3) (summary 12. 0.02));
  Alcotest.(check string) "wide change" "unresolved" (verdict lower base (summary 12. 0.3));
  let higher = { lower with lower_is_better = false } in
  Alcotest.(check string) "higher is better" "better" (verdict higher base (summary 12. 0.02))

(* A minimal bsolo-perf/1 report: one workload, one metric. *)
let report ?(build = "b") ?(seed = 1) ~median ~nodes () =
  let open Telemetry.Json in
  let s = summary median 0.02 in
  let stats median q1 q3 n =
    Obj [ ("median", Float median); ("q1", Float q1); ("q3", Float q3); ("n", Int n) ]
  in
  Obj
    [
      ("schema", String Report.schema);
      ("seed", Int seed);
      ("text_seed", Int 0);
      ("build", String build);
      ( "workloads",
        List
          [
            Obj
              [
                ("name", String "lp-bound");
                ("failed", Int 0);
                ( "e2e",
                  Obj
                    [
                      ("solve_s", stats s.median s.q1 s.q3 5);
                      ("fail_frac", stats 0. 0. 0. 1);
                    ] );
                ("counters", Obj [ ("search.nodes", Int nodes) ]);
                ("counters_stable", Bool true);
              ];
          ] );
    ]

let test_compare () =
  let bounds = [ lower ] in
  let a = report ~median:10. ~nodes:100 () in
  Alcotest.(check bool) "same run" true
    (Report.compare ~bounds a (report ~median:10.3 ~nodes:100 ()));
  Alcotest.(check bool) "slower run" false
    (Report.compare ~bounds a (report ~median:12. ~nodes:100 ()));
  Alcotest.(check bool) "counter drift" false
    (Report.compare ~bounds a (report ~median:10. ~nodes:101 ()));
  Alcotest.(check bool) "another build may change counters" true
    (Report.compare ~bounds a (report ~build:"c" ~median:10. ~nodes:101 ()));
  Alcotest.check_raises "other instances"
    (Failure "the two reports ran different instances (seed or text_seed differ)") (fun () ->
      ignore (Report.compare ~bounds a (report ~seed:3 ~median:10. ~nodes:100 ())))

(* --- answer checking -------------------------------------------------------------- *)

let pass answers =
  Ok
    {
      Pass.solved =
        List.map
          (fun answer ->
            { Pass.answer = Ok answer; solve_s = 1.; setup_s = 0.1; check_s = 0. })
          answers;
      counters = [];
      phases = [];
      search_phases_s = 0.;
      spans = [];
      peak_rss_mb = 1.;
      kernel_s = Calib.reference_s;
    }

let test_failures () =
  let w name = Option.get (Workload.find name) in
  let run name keys answers =
    { Report.workload = w name; keys; passes = [ pass answers ]; traced = [] }
  in
  let references = [ ("mcnc@2:1", "OPTIMAL 50") ] in
  let count runs = List.map (fun (n, f) -> (n, List.length f)) (Report.failures ~references runs) in
  Alcotest.(check (list (pair string int)))
    "reference and agreement" [ ("lp-bound", 0); ("certified", 0) ]
    (count
       [
         run "lp-bound" [ "mcnc@2:1"; "knap@1.5:9" ] [ "OPTIMAL 50"; "OPTIMAL 7" ];
         run "certified" [ "knap@1.5:9" ] [ "OPTIMAL 7" ];
       ]);
  Alcotest.(check (list (pair string int)))
    "wrong optimum" [ ("lp-bound", 1) ]
    (count [ run "lp-bound" [ "mcnc@2:1" ] [ "OPTIMAL 49" ] ]);
  Alcotest.(check (list (pair string int)))
    "workloads disagree" [ ("lp-bound", 1); ("certified", 1) ]
    (count
       [
         run "lp-bound" [ "knap@1.5:9" ] [ "OPTIMAL 7" ];
         run "certified" [ "knap@1.5:9" ] [ "OPTIMAL 8" ];
       ])

(* --- instance generation ----------------------------------------------------------- *)

let genpb family scale seed =
  let ic =
    Unix.open_process_args_in "../../bin/genpb.exe"
      [| "genpb.exe"; family; "--scale"; scale; "--seed"; string_of_int seed |]
  in
  let text = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  text

let small =
  List.map
    (fun (family, scale) -> { Workload.family; scale; seed = 3 })
    [ (Grout, 0.5); (Synth, 0.5); (Mcnc, 0.5); (Acc, 2.0); (Knap, 0.5) ]

let test_generation () =
  List.iter
    (fun (s : Workload.spec) ->
      let key = Workload.key s in
      let text = Workload.opb_text s in
      Alcotest.(check string) (key ^ " repeats") text (Workload.opb_text s);
      let reference = genpb (Workload.family_name s.family) (Printf.sprintf "%g" s.scale) s.seed in
      Alcotest.(check string) (key ^ " matches genpb") reference text;
      let shuffled = Workload.opb_text ~text_seed:5 s in
      Alcotest.(check bool) (key ^ " text changes") true (shuffled <> text);
      Alcotest.(check string)
        (key ^ " shuffle repeats") shuffled (Workload.opb_text ~text_seed:5 s);
      Alcotest.(check bool)
        (key ^ " same problem") true
        (Pbo.Opb.parse_string shuffled = Pbo.Opb.parse_string text))
    small

(* --- the setup-timing hook ----------------------------------------------------------- *)

(* A pass's solve (which polls its own import hook to time set-up) sees
   exactly the counters of a plain solve. *)
let test_hook () =
  List.iter
    (fun (lb, (s : Workload.spec)) ->
      let text = Workload.opb_text s in
      let file = Workload.file_name s in
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      let w = { Workload.name = "hook"; lb; proof = false; specs = (fun _ -> []) } in
      let _, timed, _, _ = Pass.solve_one w ~traced:false ~record:(fun _ _ _ -> ()) file in
      Sys.remove file;
      let tel = Telemetry.Ctx.create ~timing:false () in
      let options = { (Bsolo.Options.with_lb lb) with telemetry = Some tel } in
      ignore (Bsolo.Solver.solve ~options (Pbo.Opb.parse_string text));
      let plain = Telemetry.Registry.counters tel.registry in
      Alcotest.(check bool)
        (Workload.key s ^ " searched") true
        (List.assoc "search.nodes" plain > 0);
      Alcotest.(check (list (pair string int))) (Workload.key s ^ " unchanged by the hook") plain
        (List.sort compare timed))
    [
      (Bsolo.Options.Lpr, { Workload.family = Synth; scale = 0.5; seed = 1 });
      (Lpr, { family = Knap; scale = 0.7; seed = 1 });
      (Mis, { family = Mcnc; scale = 0.7; seed = 1 });
    ]

let () =
  Alcotest.run "perf"
    [
      ("stats", [ Alcotest.test_case "quartiles" `Quick test_quartiles ]);
      ( "report",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "failures" `Quick test_failures;
        ] );
      ( "workload",
        [
          Alcotest.test_case "generation" `Quick test_generation;
          Alcotest.test_case "import hook" `Quick test_hook;
        ] );
    ]
