(* From passes to metrics: answer checking, the end-to-end and per-layer
   metrics, the printed table, the bsolo-perf/1 JSON and [compare]. *)

module Json = Telemetry.Json

type run = {
  workload : Workload.t;
  keys : string list;  (** instance keys, in solve order *)
  passes : (Pass.result, string) result list;  (** timing off, in run order *)
  traced : (Pass.result, string) result list;  (** [Ctx.create ~timing:true] *)
}

let oks l = List.filter_map Result.to_option l

(* --- answers -------------------------------------------------------------- *)

type failure = {
  instance : string;
  reason : string;
}

(* Every solve of every run, as (key, answer or failure reason). *)
let answers r =
  List.concat_map
    (function
      | Ok (p : Pass.result) ->
        List.map2
          (fun key (s : Pass.solved) -> (key, s.answer))
          r.keys p.solved
      | Error e -> List.map (fun key -> (key, Error e)) r.keys)
    (r.passes @ r.traced)

(* An answer is wrong when it differs from the committed reference for its
   instance, or, for an instance without one, when two solves anywhere in
   [runs] disagree on it (workloads share instances). *)
let failures ~references runs =
  let all = List.concat_map answers runs in
  let disputed key =
    let distinct =
      List.sort_uniq compare
        (List.filter_map (fun (k, a) -> if k = key then Result.to_option a else None) all)
    in
    List.length distinct > 1
  in
  List.map
    (fun r ->
      ( r.workload.name,
        List.filter_map
          (fun (key, a) ->
            match a, List.assoc_opt key references with
            | Error reason, _ -> Some { instance = key; reason }
            | Ok a, Some expected when a <> expected ->
              let reason = Printf.sprintf "answered %s, reference %s" a expected in
              Some { instance = key; reason }
            | Ok _, Some _ -> None
            | Ok a, None when disputed key ->
              let reason = Printf.sprintf "answered %s, other solves disagree" a in
              Some { instance = key; reason }
            | Ok _, None -> None)
          (answers r) ))
    runs

let attempted r = List.length r.keys * (List.length r.passes + List.length r.traced)
let ratio a b = if b = 0. then 0. else a /. b
let fail_frac r failures = ratio (float_of_int (List.length failures)) (float_of_int (attempted r))

(* --- end-to-end metrics ------------------------------------------------------ *)

(* Times of a pass are reported in calibrated seconds: wall seconds
   scaled by the machine's speed around the pass (see {!Calib}). *)
let scale (p : Pass.result) = Calib.reference_s /. p.kernel_s

let wall f (p : Pass.result) = List.fold_left (fun acc s -> acc +. f s) 0. p.solved
let solve_s p = scale p *. wall (fun s -> s.Pass.solve_s) p
let check_s p = scale p *. wall (fun s -> s.Pass.check_s) p

(* name, unit, value of one pass; [answer_s] is what a user waits for a
   trusted answer: the solve, plus the proof check on [certified]. *)
let e2e_of_pass (p : Pass.result) =
  [
    ("solve_s", "s", solve_s p);
    ("setup_s", "s", scale p *. wall (fun s -> s.Pass.setup_s) p);
    ("answer_s", "s", solve_s p +. check_s p);
    ("peak_rss_mb", "MB", p.peak_rss_mb);
    ("check_s", "s", check_s p);
  ]

(* Per-pass rows of (name, unit, value), all naming the same metrics in
   the same order, as one (name, unit, values) per metric. *)
let columns = function
  | [] -> []
  | first :: _ as rows ->
    List.mapi
      (fun i (name, unit_, _) ->
        (name, unit_, List.map (fun row -> let _, _, v = List.nth row i in v) rows))
      first

let e2e r =
  columns (List.map e2e_of_pass (oks r.passes))
  |> List.filter (fun (name, _, _) -> name <> "check_s" || r.workload.proof)
  |> List.map (fun (name, unit_, values) -> (name, unit_, Stats.summarize values, values))

(* --- per-layer metrics -------------------------------------------------------- *)

let counter_names =
  [
    "engine.decisions"; "engine.conflicts"; "engine.learned"; "bcp.propagations"; "bcp.visits";
    "search.nodes"; "search.lb_calls"; "search.lb_skips"; "simplex.iterations"; "simplex.calls";
    "lpr.warm_hits"; "lpr.cold_falls"; "lpr.cache_hits"; "cuts.separated"; "cuts.evicted";
    "cuts.knapsack"; "cuts.cardinality"; "presolve.reductions"; "proof.steps"; "proof.bytes";
    "proof.uncertified_prunes";
  ]

let counter (p : Pass.result) name =
  let get n = Option.value (List.assoc_opt n p.counters) ~default:0 in
  let sum_of suffix =
    List.fold_left
      (fun acc k -> acc + get ("cuts." ^ k ^ suffix))
      0 [ "cover"; "clique"; "implied" ]
  in
  match name with
  | "cuts.separated" -> sum_of ".separated"
  | "cuts.evicted" -> sum_of ".evicted"
  | n -> get n

let fcounter p n = float_of_int (counter p n)

(* Useful lower-bound calls: the share that ended in a bound conflict. *)
let prune_ratio p =
  ratio
    (List.fold_left (fun acc proc -> acc +. fcounter p ("lb." ^ proc ^ ".bound_conflicts")) 0.
       [ "lpr"; "mis"; "lgr" ])
    (fcounter p "search.lb_calls")

let timed_phases =
  [ "preprocess"; "propagate"; "analyze"; "reduce_db"; "lower_bound"; "simplex"; "cut_generation" ]

let span_names = [ "pbo.parse"; "bsolo.setup"; "bsolo.search"; "proof.check"; "bench.verify" ]

(* Metrics of one traced pass, in calibrated seconds. *)
let traced_metrics (p : Pass.result) =
  let scale = scale p in
  let phase n = scale *. Option.value (List.assoc_opt ("time." ^ n ^ "_s") p.phases) ~default:0. in
  let per scale time count = scale *. ratio time count in
  let span_total n =
    scale
    *. List.fold_left
         (fun acc (s : Pass.span) -> if s.name = n then acc +. s.stop -. s.start else acc)
         0. p.spans
  in
  List.map (fun n -> ("time." ^ n ^ "_s", "s", phase n)) timed_phases
  @ [ ("time.unattributed_s", "s", span_total "bsolo.search" -. (scale *. p.search_phases_s)) ]
  @ List.map (fun n -> ("span." ^ n ^ "_s", "s", span_total n)) span_names
  @ [
      ("engine.ns_per_visit", "ns", per 1e9 (phase "propagate") (fcounter p "bcp.visits"));
      ("simplex.us_per_iter", "us", per 1e6 (phase "simplex") (fcounter p "simplex.iterations"));
      ( "lb.us_per_call",
        "us",
        per 1e6 (phase "lower_bound" +. phase "simplex") (fcounter p "search.lb_calls") );
      ( "knapsack.us_per_cut",
        "us",
        per 1e6 (phase "cut_generation")
          (fcounter p "cuts.knapsack" +. fcounter p "cuts.cardinality") );
      ("check.us_per_step", "us", per 1e6 (span_total "proof.check") (fcounter p "proof.steps"));
    ]

(* Counters repeat exactly across passes, timed or not, unless an
   instance hit the limit; [stable] says whether they did. *)
let counters r =
  match oks (r.passes @ r.traced) with
  | [] -> ([], true)
  | first :: rest ->
    ( List.map (fun n -> (n, counter first n)) counter_names,
      List.for_all (fun (p : Pass.result) -> p.counters = first.counters) rest )

let layers r =
  let passes = oks r.passes and traced = oks r.traced in
  match passes with
  | [] -> []
  | first :: _ ->
    let cs, _ = counters r in
    let untraced_solve = Stats.median (List.map solve_s passes) in
    List.map
      (fun (n, v) -> (n, (if n = "proof.bytes" then "bytes" else "count"), float_of_int v))
      cs
    @ [
        ("lb.prune_ratio", "ratio", prune_ratio first);
        ( "proof.bytes_per_step",
          "bytes",
          ratio (fcounter first "proof.bytes") (fcounter first "proof.steps") );
        ("check_s", "s", Stats.median (List.map check_s passes));
        ("wall.solve_s", "s", Stats.median (List.map (wall (fun s -> s.Pass.solve_s)) passes));
        ( "calib.kernel_s",
          "s",
          Stats.median (List.map (fun (p : Pass.result) -> p.kernel_s) passes) );
      ]
    @ List.map
        (fun (n, u, vs) -> (n, u, Stats.median vs))
        (columns (List.map traced_metrics traced))
    @
    match traced with
    | [] -> []
    | _ ->
      [
        ( "telemetry.timing_overhead_pct",
          "%",
          100. *. (ratio (Stats.median (List.map solve_s traced)) untraced_solve -. 1.) );
      ]

(* --- printing ---------------------------------------------------------------- *)

let print_workload r ~failures =
  Printf.printf "== %s  (%d instances: %s)\n" r.workload.name (List.length r.keys)
    (String.concat " " r.keys);
  List.iter
    (fun (name, unit_, (s : Stats.summary), _) ->
      Printf.printf "  %-30s %12.4f %-5s q1 %.4f  q3 %.4f  n=%d\n" name s.median unit_ s.q1 s.q3
        s.n)
    (e2e r);
  Printf.printf "  %-30s %12.4f %-5s (%d of %d solves)\n" "fail_frac" (fail_frac r failures)
    "fraction" (List.length failures) (attempted r);
  List.iter (fun f -> Printf.printf "    FAILED %s: %s\n" f.instance f.reason) failures;
  let _, stable = counters r in
  if not stable then print_endline "  WARNING counters differ between passes";
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-30s %12.4f %s\n" name v unit_) (layers r)

(* --- bsolo-perf/1 JSON ------------------------------------------------------- *)

let schema = "bsolo-perf/1"

let workload_json r ~failures =
  let summary (name, unit_, (s : Stats.summary), values) =
    ( name,
      Json.Obj
        [
          ("unit", String unit_);
          ("median", Float s.median);
          ("q1", Float s.q1);
          ("q3", Float s.q3);
          ("n", Int s.n);
          ("values", List (List.map (fun v -> Json.Float v) values));
        ] )
  in
  let fail_frac = fail_frac r failures in
  let cs, stable = counters r in
  let spans =
    match oks r.traced with
    | [] -> []
    | p :: _ ->
      let t0 = match p.spans with s :: _ -> s.start | [] -> 0. in
      List.map
        (fun (s : Pass.span) ->
          Json.Obj
            [
              ("name", String s.name);
              ("instance", String (List.nth r.keys s.instance));
              ("id", Int s.instance);
              ("start_s", Float (s.start -. t0));
              ("end_s", Float (s.stop -. t0));
            ])
        p.spans
  in
  Json.Obj
    [
      ("name", String r.workload.name);
      ("instances", List (List.map (fun k -> Json.String k) r.keys));
      ("attempted", Int (attempted r));
      ("failed", Int (List.length failures));
      ( "failures",
        List
          (List.map
             (fun f -> Json.Obj [ ("instance", String f.instance); ("reason", String f.reason) ])
             failures) );
      ( "e2e",
        Obj
          (List.map summary (e2e r)
          @ [
              ( "fail_frac",
                Obj
                  [
                    ("unit", String "fraction");
                    ("median", Float fail_frac);
                    ("q1", Float fail_frac);
                    ("q3", Float fail_frac);
                    ("n", Int 1);
                  ] );
            ]) );
      ("counters", Obj (List.map (fun (n, v) -> (n, Json.Int v)) cs));
      ("counters_stable", Bool stable);
      ( "layers",
        Obj
          (List.map
             (fun (n, u, v) -> (n, Json.Obj [ ("value", Float v); ("unit", String u) ]))
             (layers r)) );
      ("spans", List spans);
    ]

let to_json ~seed ~text_seed ~build runs ~failures =
  Json.Obj
    [
      ("schema", String schema);
      ("seed", Int seed);
      ("text_seed", Int text_seed);
      ("limit_s", Float Pass.limit_s);
      ("build", String build);
      ( "workloads",
        List
          (List.map
             (fun r -> workload_json r ~failures:(List.assoc r.workload.name failures))
             runs)
      );
    ]

(* --- compare ----------------------------------------------------------------- *)

type bound = {
  metric : string;
  lower_is_better : bool;
  share : float;
}

let member_exn path json =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None -> failwith (Printf.sprintf "missing field %S" (String.concat "." path)))
    json path

let float_exn path json =
  match Json.to_float (member_exn path json) with
  | Some f -> f
  | None -> failwith (Printf.sprintf "field %S is not a number" (String.concat "." path))

let list_exn path json = Option.value (Json.to_list (member_exn path json)) ~default:[]
let string_exn path json = Option.value (Json.to_string_opt (member_exn path json)) ~default:""

(* The end-to-end bounds fixed in BENCHMARK.json. *)
let bounds_of_benchmark json =
  List.map
    (fun m ->
      {
        metric = string_exn [ "name" ] m;
        lower_is_better = string_exn [ "better" ] m = "lower";
        share = float_exn [ "bound" ] m;
      })
    (list_exn [ "end_to_end" ] json)

type verdict =
  | Better
  | Worse
  | Unchanged
  | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [a] is the baseline.  A spread wider than the bound on either side
   cannot resolve a change of the bound's size. *)
let judge b (a : Stats.summary) (c : Stats.summary) =
  let delta = ratio (c.median -. a.median) a.median in
  let delta = if b.lower_is_better then delta else -.delta in
  if Float.max (Stats.spread a) (Stats.spread c) > b.share then (delta, Unresolved)
  else if delta > b.share then (delta, Worse)
  else if delta < -.b.share then (delta, Better)
  else (delta, Unchanged)

let summary_of_json j =
  {
    Stats.median = float_exn [ "median" ] j;
    q1 = float_exn [ "q1" ] j;
    q3 = float_exn [ "q3" ] j;
    n = int_of_float (float_exn [ "n" ] j);
  }

(* Returns whether [b] is acceptable against baseline [a], both run on
   the same instances: no metric worse and, for two runs of one build,
   identical counters. *)
let compare ~bounds a b =
  if string_exn [ "schema" ] a <> schema || string_exn [ "schema" ] b <> schema then
    failwith ("both files must be " ^ schema ^ " reports");
  if not (List.for_all (fun k -> Json.member k a = Json.member k b) [ "seed"; "text_seed" ]) then
    failwith "the two reports ran different instances (seed or text_seed differ)";
  let same_build = Json.member "build" a = Json.member "build" b in
  let ok = ref true in
  let workloads j = List.map (fun w -> (string_exn [ "name" ] w, w)) (list_exn [ "workloads" ] j) in
  Printf.printf "%-17s %-12s %-26s %-26s %8s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "bound" "verdict";
  let cell (s : Stats.summary) = Printf.sprintf "%.4g [%.4g, %.4g]" s.median s.q1 s.q3 in
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name (workloads b) with
      | None -> Printf.printf "%-17s missing from B\n" name
      | Some wb ->
        let row metric bound =
          let e2e w = Json.member metric (member_exn [ "e2e" ] w) in
          match e2e wa, e2e wb with
          | Some ja, Some jb ->
            let sa = summary_of_json ja and sb = summary_of_json jb in
            let delta, v = judge bound sa sb in
            if v = Worse then ok := false;
            Printf.printf "%-17s %-12s %-26s %-26s %+7.1f%% %5.0f%%  %s\n" name metric (cell sa)
              (cell sb) (100. *. delta) (100. *. bound.share) (verdict_name v)
          | _ -> ()
        in
        List.iter (fun bound -> row bound.metric bound) bounds;
        let fa = float_exn [ "e2e"; "fail_frac"; "median" ] wa
        and fb = float_exn [ "e2e"; "fail_frac"; "median" ] wb in
        let v = if fb > fa then Worse else if fb < fa then Better else Unchanged in
        if v = Worse then ok := false;
        Printf.printf "%-17s %-12s %-26g %-26g %8s %6s  %s\n" name "fail_frac" fa fb "" "any"
          (verdict_name v);
        let counters_comparable w =
          Json.member "counters_stable" w = Some (Bool true)
          && float_exn [ "failed" ] w = 0.
        in
        if same_build && counters_comparable wa && counters_comparable wb then begin
          let ca = member_exn [ "counters" ] wa and cb = member_exn [ "counters" ] wb in
          if ca <> cb then begin
            ok := false;
            Printf.printf "%-17s counters differ between two runs of one build:\n" name;
            match ca, cb with
            | Obj la, Obj lb ->
              List.iter
                (fun (k, v) ->
                  if List.assoc_opt k lb <> Some v then
                    Printf.printf "    %s: %s vs %s\n" k (Json.to_string v)
                      (Option.fold ~none:"missing" ~some:Json.to_string (List.assoc_opt k lb)))
                la
            | _ -> ()
          end
          else Printf.printf "%-17s counters identical\n" name
        end)
    (workloads a);
  if not same_build then print_endline "(two builds: counters are not required to match)";
  !ok
