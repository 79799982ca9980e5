(* BCP micro-benchmark: propagations/sec per --bcp mode on three
   instance profiles.

     bcp.exe [--json FILE] [--quota SECS] [--min-ratio R]

   Three synthetic workloads isolate the propagation hot path:
   clause-heavy (where coefficient-sum watched sets degenerate to the
   classical two-watched scheme and counting pays for every occurrence),
   coefficient-heavy (wide spread PB constraints, where watch sets must
   cover maxcoeff), and mixed.  Each measured run replays the identical
   deterministic decision script through a fresh engine — all modes
   visit the same fixpoints, so implied-assignment counts per run are
   equal by construction and the wall-clock ratio is a pure propagation
   throughput comparison.

   With --min-ratio, exits non-zero unless hybrid reaches at least R x
   the counting throughput on the clause-heavy suite. *)

open Pbo
module Core = Engine.Solver_core

(* --- workload generators --------------------------------------------------- *)

let clause_heavy () =
  (* Long clauses over a moderate pool of variables: each dequeue
     touches many occurrences, but only a couple of literals per clause
     are watched, so counting visits ~arity/2 times more constraints
     than the watched scheme does.  Short arity-2/3 clauses would hide
     the difference (nearly every literal is watched). *)
  let nvars = 260 in
  let rng = Random.State.make [| 0xc1a5e |] in
  let b = Problem.Builder.create ~nvars () in
  for _ = 1 to 4000 do
    let arity = 6 + Random.State.int rng 4 in
    let lits =
      List.init arity (fun _ -> Lit.make (Random.State.int rng nvars) (Random.State.bool rng))
    in
    Problem.Builder.add_clause b lits
  done;
  Problem.Builder.build b

let coefficient_heavy () =
  let nvars = 160 in
  let rng = Random.State.make [| 0xc0eff |] in
  let b = Problem.Builder.create ~nvars () in
  for _ = 1 to 350 do
    let arity = 6 + Random.State.int rng 6 in
    let terms =
      List.init arity (fun _ ->
          ( 1 + Random.State.int rng 40,
            Lit.make (Random.State.int rng nvars) (Random.State.bool rng) ))
    in
    let total = List.fold_left (fun acc (c, _) -> acc + c) 0 terms in
    Problem.Builder.add_ge b terms (max 1 (total / 3))
  done;
  Problem.Builder.build b

let mixed () =
  let nvars = 200 in
  let rng = Random.State.make [| 0x3213ed |] in
  let b = Problem.Builder.create ~nvars () in
  for i = 1 to 600 do
    if i mod 2 = 0 then begin
      let arity = 3 + Random.State.int rng 3 in
      let lits =
        List.init arity (fun _ ->
            Lit.make (Random.State.int rng nvars) (Random.State.bool rng))
      in
      Problem.Builder.add_clause b lits
    end
    else begin
      let arity = 4 + Random.State.int rng 6 in
      let terms =
        List.init arity (fun _ ->
            ( 1 + Random.State.int rng 12,
              Lit.make (Random.State.int rng nvars) (Random.State.bool rng) ))
      in
      let total = List.fold_left (fun acc (c, _) -> acc + c) 0 terms in
      Problem.Builder.add_ge b terms (max 1 (total / 3))
    end
  done;
  Problem.Builder.build b

(* --- deterministic propagation workload ------------------------------------ *)

(* One run: a fresh engine driven through a fixed decision script with
   restarts on conflict, pure propagation (no conflict analysis, so the
   constraint database never changes and every run does identical
   work).  The phase script is precomputed so all modes and all runs
   decide the same literals. *)
let make_script problem =
  let nvars = Problem.nvars problem in
  let rng = Random.State.make [| 0x5c17; nvars |] in
  Array.init (3 * nvars) (fun i -> Lit.make (i mod nvars) (Random.State.bool rng))

(* Replay the script on an existing engine and return it to the root
   level.  No conflict analysis, so the constraint database is immutable
   and every replay does identical semantic work; the engine is created
   once outside the timed region so attach cost (watch-list setup) is
   excluded and the measurement isolates steady-state propagation. *)
let run_script engine script =
  let n = Array.length script in
  let i = ref 0 in
  let continue = ref (not (Core.root_unsat engine)) in
  while !continue && !i < n do
    let l = script.(!i) in
    incr i;
    if Value.equal (Core.value_lit engine l) Value.Unknown then begin
      Core.decide engine l;
      match Core.propagate engine with
      | None -> ()
      | Some _ ->
        (* restart instead of analyzing: keeps the database immutable *)
        Core.backjump_to engine 0;
        if Core.root_unsat engine then continue := false
    end
  done;
  Core.backjump_to engine 0

(* Implied assignments of one scripted replay (identical across modes;
   the equivalence suite proves it, this just reads the counter). *)
let props_of ~bcp problem script =
  let engine = Core.create ~bcp problem in
  let before = Telemetry.Counter.get (Core.bcp_stats engine).Core.b_props in
  run_script engine script;
  Telemetry.Counter.get (Core.bcp_stats engine).Core.b_props - before

let modes = [ "watched", Core.Watched; "counting", Core.Counting; "hybrid", Core.Hybrid ]

(* --- measurement ----------------------------------------------------------- *)

let measure ~quota ~bcp problem script =
  let open Bechamel in
  let engine = Core.create ~bcp problem in
  (* warm-up replays so watch lists reach their steady-state layout *)
  for _ = 1 to 3 do
    run_script engine script
  done;
  let test =
    Test.make ~name:"bcp" (Staged.stage (fun () -> run_script engine script))
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:60 ~quota:(Time.second quota) ~kde:None () in
  let results = Benchmark.all cfg instances test in
  let a =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock results
  in
  let est = ref None in
  Hashtbl.iter
    (fun _ ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> est := Some ns
      | Some _ | None -> ())
    a;
  !est

let () =
  let json_out = ref None in
  let quota = ref 0.5 in
  let min_ratio = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: v :: rest ->
      json_out := Some v;
      parse rest
    | "--quota" :: v :: rest ->
      quota := float_of_string v;
      parse rest
    | "--min-ratio" :: v :: rest ->
      min_ratio := Some (float_of_string v);
      parse rest
    | other :: _ ->
      Printf.eprintf "unknown argument %S\n" other;
      Printf.eprintf "usage: bcp.exe [--json FILE] [--quota SECS] [--min-ratio R]\n";
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let suites =
    [ "clause-heavy", clause_heavy (); "coefficient-heavy", coefficient_heavy (); "mixed", mixed () ]
  in
  let results =
    List.map
      (fun (sname, problem) ->
        let script = make_script problem in
        Printf.printf "%s (%d vars, %d constraints):\n%!" sname (Problem.nvars problem)
          (Array.length (Problem.constraints problem));
        let rows =
          List.map
            (fun (mname, bcp) ->
              let props = props_of ~bcp problem script in
              match measure ~quota:!quota ~bcp problem script with
              | None ->
                Printf.printf "  %-10s (no estimate)\n%!" mname;
                mname, 0.
              | Some ns_per_run ->
                let pps = float_of_int props /. (ns_per_run *. 1e-9) in
                Printf.printf "  %-10s %12.0f props/sec  (%d props, %.2f ms/run)\n%!" mname
                  pps props (ns_per_run /. 1e6);
                mname, pps)
            modes
        in
        sname, rows)
      suites
  in
  (match !json_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let mode_fields rows =
      String.concat ","
        (List.map (fun (m, pps) -> Printf.sprintf "%S:%.1f" m pps) rows)
    in
    let suite_fields =
      String.concat ","
        (List.map (fun (s, rows) -> Printf.sprintf "%S:{%s}" s (mode_fields rows)) results)
    in
    Printf.fprintf oc "{\"schema\":\"bsolo-bcp-bench/1\",\"props_per_sec\":{%s}}\n" suite_fields;
    close_out oc;
    Printf.printf "wrote %s\n%!" path);
  match !min_ratio with
  | None -> ()
  | Some r -> (
    match List.assoc_opt "clause-heavy" results with
    | None -> ()
    | Some rows ->
      let get m = Option.value ~default:0. (List.assoc_opt m rows) in
      let hybrid = get "hybrid" and counting = get "counting" in
      let ratio = if counting > 0. then hybrid /. counting else 0. in
      Printf.printf "clause-heavy hybrid/counting ratio: %.2fx (gate %.2fx)\n%!" ratio r;
      if ratio < r then begin
        Printf.eprintf "FAIL: hybrid %.0f props/sec < %.1fx counting %.0f props/sec\n" hybrid
          r counting;
        exit 1
      end)
