(* Cross-mode BCP equivalence: watched, counting and hybrid propagation
   must explore the identical search tree — same fixpoints, same
   conflicts, same outcomes, byte-identical recorded event streams. *)
open Pbo
module Core = Engine.Solver_core
module R = Telemetry.Recorder

let modes = [ Core.Watched, "watched"; Core.Counting, "counting"; Core.Hybrid, "hybrid" ]

(* --- engine-level lockstep ------------------------------------------------- *)

(* Drive one engine per mode through the identical decision sequence and
   compare the full propagation fixpoint after every step: trail
   contents (order and reasons included), conflict verdicts, analysis
   results.  The hybrid engine picks the decisions; its VSIDS state
   stays in step with the others exactly because everything else does. *)
let check_engine seed engine name =
  match Core.check_invariants engine with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d (%s): invariant: %s" seed name e

let lockstep_walk () =
  for seed = 0 to 60 do
    let problem = Gen.problem seed in
    let engines = List.map (fun (m, name) -> Core.create ~bcp:m problem, name) modes in
    let lead = fst (List.hd engines) in
    let rng = Random.State.make [| seed; 0xbc9 |] in
    let compare_states where =
      let ref_trail = Core.trail lead in
      List.iter
        (fun (e, name) ->
          check_engine seed e name;
          if Core.root_unsat e <> Core.root_unsat lead then
            Alcotest.failf "seed %d %s (%s): root_unsat differs" seed where name;
          if Core.trail e <> ref_trail then
            Alcotest.failf "seed %d %s (%s): assignment differs from watched engine" seed
              where name;
          if Core.decision_level e <> Core.decision_level lead then
            Alcotest.failf "seed %d %s (%s): decision level differs" seed where name)
        (List.tl engines)
    in
    let propagate_all where =
      let results = List.map (fun (e, name) -> Core.propagate e, name) engines in
      let lead_conflict, _ = List.hd results in
      List.iter
        (fun (c, name) ->
          match lead_conflict, c with
          | None, None -> ()
          | Some _, Some _ -> ()
          | _ ->
            Alcotest.failf "seed %d %s (%s): conflict verdict differs" seed where name)
        results;
      compare_states where;
      List.map fst results
    in
    let rec walk fuel =
      if fuel > 0 && not (Core.root_unsat lead) then begin
        match propagate_all "propagate" with
        | Some _ :: _ as conflicts ->
          let analyses =
            List.map2
              (fun conflict (e, name) ->
                (* each engine analyzes its own conflict cid; the learned
                   clause and backjump must agree *)
                match conflict with
                | Some ci -> Core.resolve_conflict e ci, name
                | None -> Alcotest.failf "seed %d (%s): conflict not reported" seed name)
              conflicts engines
          in
          let lead_a, _ = List.hd analyses in
          List.iter
            (fun (a, name) ->
              match lead_a, a with
              | Core.Root_conflict, Core.Root_conflict -> ()
              | ( Core.Backjump { level = l1; asserting = a1 },
                  Core.Backjump { level = l2; asserting = a2 } )
                when l1 = l2 && a1 = a2 ->
                ()
              | _ -> Alcotest.failf "seed %d (%s): analysis differs" seed name)
            (List.tl analyses);
          compare_states "after analysis";
          walk (fuel - 1)
        | _ ->
          (match Core.next_branch_var lead with
          | None -> ()
          | Some v ->
            let l = Lit.make v (Random.State.bool rng) in
            List.iter (fun (e, _) -> Core.decide e l) engines;
            walk (fuel - 1))
      end
    in
    walk 40
  done

(* Propagate never re-reports a conflict it already returned (the trail
   is fully dequeued), so the lockstep loop above re-propagates before
   resolving; double-check that behaviour is uniform too. *)

(* --- solver-level equivalence over all four LB methods --------------------- *)

let lb_methods =
  [
    Bsolo.Options.Plain, "plain";
    Bsolo.Options.Mis, "mis";
    Bsolo.Options.Lgr, "lgr";
    Bsolo.Options.Lpr, "lpr";
  ]

let outcome_signature problem options =
  let tel = Telemetry.Ctx.silent () in
  let outcome =
    Bsolo.Solver.solve ~options:{ options with Bsolo.Options.telemetry = Some tel } problem
  in
  let counters = Telemetry.Registry.counters tel.registry in
  let pick name = try List.assoc name counters with Not_found -> 0 in
  ( Bsolo.Outcome.status_name outcome.Bsolo.Outcome.status,
    Option.map snd outcome.best,
    pick "engine.decisions",
    pick "engine.conflicts",
    pick "bcp.propagations" )

let qcheck_solver_equivalence =
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (oneofl (List.map fst lb_methods))) in
  QCheck2.Test.make ~name:"all --bcp modes explore the identical tree" ~count:60 gen
    (fun (seed, lb) ->
      let problem = Gen.problem seed in
      let base = Bsolo.Options.with_lb lb in
      let reference = outcome_signature problem { base with bcp = Core.Watched } in
      List.for_all
        (fun (m, _) -> outcome_signature problem { base with bcp = m } = reference)
        (List.tl modes))

let solver_equivalence_covering () =
  List.iter
    (fun (lb, lb_name) ->
      for seed = 0 to 15 do
        let problem = Gen.covering seed in
        let base = Bsolo.Options.with_lb lb in
        let signatures =
          List.map (fun (m, name) -> outcome_signature problem { base with bcp = m }, name) modes
        in
        let ref_sig, _ = List.hd signatures in
        List.iter
          (fun (s, name) ->
            if s <> ref_sig then
              Alcotest.failf "covering seed %d lb=%s: %s disagrees with watched" seed lb_name
                name)
          (List.tl signatures)
      done)
    lb_methods

(* --- recorded event stream across modes ------------------------------------ *)

let tmp suffix = Filename.temp_file "bcpmodes" suffix

let record_solve ~bcp problem path =
  let base = { Bsolo.Options.default with bcp } in
  let h =
    {
      R.h_run_id = "bcp-modes";
      h_engine = "bsolo";
      h_lb_method = "lpr";
      h_started = Unix.gettimeofday ();
      h_nvars = Problem.nvars problem;
      h_nconstraints = Array.length (Problem.constraints problem);
      h_flags = Bsolo.Replay.flags_of_options base;
      h_lgr_iters = base.lgr_iters;
    }
  in
  let recorder = R.open_file path h in
  let tel = Telemetry.Ctx.create ~timing:false ~recorder () in
  let outcome = Bsolo.Solver.solve ~options:{ base with telemetry = Some tel } problem in
  Telemetry.Ctx.close tel;
  outcome

(* A recording made under one mode must replay byte-identically under
   every other mode — the `bsolo replay --check --bcp` contract. *)
let cross_mode_replay () =
  List.iter
    (fun seed ->
      let problem = Gen.problem seed in
      List.iter
        (fun (rec_mode, rec_name) ->
          let path = tmp ".rec" in
          Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          @@ fun () ->
          let recorded = record_solve ~bcp:rec_mode problem path in
          match R.read_file path with
          | Error msg -> Alcotest.fail msg
          | Ok rc ->
            List.iter
              (fun (replay_mode, replay_name) ->
                match Bsolo.Replay.run ~bcp:replay_mode problem rc with
                | Error msg -> Alcotest.failf "seed %d %s->%s: %s" seed rec_name replay_name msg
                | Ok rep ->
                  (match rep.Bsolo.Replay.mismatch with
                  | Some m ->
                    Alcotest.failf
                      "seed %d: recorded under %s, replayed under %s, diverged at event %d: \
                       recorded %s, replayed %s"
                      seed rec_name replay_name m.at m.expected m.got
                  | None -> ());
                  if rep.checked <> rep.total then
                    Alcotest.failf "seed %d %s->%s: %d/%d events checked" seed rec_name
                      replay_name rep.checked rep.total;
                  if
                    Bsolo.Outcome.status_name rep.outcome.Bsolo.Outcome.status
                    <> Bsolo.Outcome.status_name recorded.Bsolo.Outcome.status
                  then Alcotest.failf "seed %d %s->%s: outcome differs" seed rec_name replay_name)
              modes)
        modes)
    [ 3; 9; 17 ]

(* --- cut rows against plain constraints -------------------------------------- *)

(* Engine A adds every incumbent-style cut as a plain constraint with
   [add_constraint_dynamic]; engine B adds the same cuts with [add_cut]
   to one row per source, which starts a new row whenever a cut's
   normalized terms change (a saturated cut).  Cuts come from [nsources]
   sources — the whole objective and random parts of it — at a falling
   bound.  Random propagations, decisions, backjumps, cut additions and
   [reduce_db] calls then run on both for [fuel] steps; at every step
   the trails (with reasons), conflict cids, analyses and the engine
   invariants (the rows' sums, keys and cursor included) must agree.

   [~mixed:true] adds the sources of the objective's terms whose costs
   2, 3 and 4 divide, starts every source's bound just below its own
   sum, so each cuts from the start, first saturated, and adds a
   source whose terms repeat a variable: its family is [Raw] and its
   cuts are not the objective's normal form minus some terms, so engine
   B must take them as plain constraints.

   [~deep:true] first gives every source [members] cuts at the root and
   then walks without [reduce_db] and with rarer backjumps, so rows keep
   many members, reach several tight fixpoints between backjumps, and
   backjumps unassign terms before where a row's cursor stood.  The
   returned [walk] says which of those the run saw, judged from the
   outside: a row is tight at a fixpoint when its tightest member's
   slack is below its largest coefficient, and a backjump rewinds a
   tight row when it unassigns a term before the row's first
   unassigned one.  A row's excluded terms are the objective's terms
   it lacks; a backjump reverts one when it unassigns a cost literal
   that was true (its normal-form term false). *)
type walk = {
  walked : bool;  (* the instance was not refuted at the root *)
  big_rows : int;  (* rows given at least [members] members, [reduce_db] aside *)
  tight_runs : int;  (* backjumps after two or more tight fixpoints *)
  rewinds : int;  (* backjumps that unassigned a term before a tight row's first unassigned one *)
  scaled_rows : int;  (* rows whose exclusion changed the objective's gcd *)
  excluded_reverts : int;  (* (backjump, row) pairs: the backjump reverted a false excluded term *)
  plain_cuts : int;  (* cuts engine B took as plain constraints *)
}

let rows_lockstep ?(nsources = 2) ?(fuel = 120) ?(deep = false) ?(members = 8) ?(mixed = false)
    problem bcp seed =
  let rng = Random.State.make [| seed; 0x70ad |] in
  let cost_terms =
    match Problem.objective problem with
    | None -> []
    | Some o ->
      Array.to_list (Array.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) o.cost_terms)
  in
  let parts =
    List.init (nsources - 1) (fun _ -> List.filter (fun _ -> Random.State.bool rng) cost_terms)
  in
  let parts =
    match cost_terms with
    | (c, l) :: _ when mixed ->
      (* the terms whose cost [k] divides: excluding the rest changes the gcd *)
      let multiples k = List.filter (fun (c, _) -> c mod k = 0) cost_terms in
      parts
      @ List.filter (fun part -> part <> []) [ multiples 2; multiples 3; multiples 4 ]
      @ [ (1, Lit.negate l) :: (c, l) :: cost_terms ]
    | _ -> parts
  in
  let sources = Array.of_list (List.map Constr.family (cost_terms :: parts)) in
  let sum terms = List.fold_left (fun acc (c, _) -> acc + c) 0 terms in
  let bounds =
    Array.of_list
      (List.map
         (fun terms ->
           if mixed then
             ref (sum terms - (List.fold_left (fun acc (c, _) -> max acc c) 0 terms / 2))
           else ref (sum (if deep then terms else cost_terms)))
         (cost_terms :: parts))
  in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let cost_of = Hashtbl.create 16 in
  List.iter (fun (c, l) -> Hashtbl.replace cost_of (Lit.negate l) c) cost_terms;
  let objective_gcd = List.fold_left (fun acc (c, _) -> gcd acc c) 0 cost_terms in
  let scaled_rows = ref 0 and excluded_reverts = ref 0 and plain_cuts = ref 0 in
  (* per row: the cost literals of its excluded terms *)
  let excluded = Hashtbl.create 8 in
  let rows = Array.map (fun _ -> ref None) sources in
  (* engine B's rows as the test sees them: terms, the tightest member's
     degree and the number of members *)
  let seen_rows = Hashtbl.create 8 in
  let tight_fixpoints = ref 0 and tight_rows = Hashtbl.create 8 in
  let big_rows = ref 0 and tight_runs = ref 0 and rewinds = ref 0 in
  let a = Core.create ~bcp problem and b = Core.create ~bcp problem in
  let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_reportf "seed %d: %s" seed m) fmt in
  let same where =
    (match Core.check_invariants a, Core.check_invariants b with
    | Ok (), Ok () -> ()
    | Error e, _ -> fail "%s: plain engine invariant: %s" where e
    | _, Error e -> fail "%s: row engine invariant: %s" where e);
    if Core.trail a <> Core.trail b then fail "%s: trails or reasons differ" where;
    if Core.root_unsat a <> Core.root_unsat b then fail "%s: root_unsat differs" where;
    if Core.decision_level a <> Core.decision_level b then fail "%s: levels differ" where
  in
  let first_unassigned terms =
    let n = Array.length terms in
    let rec go i =
      if i < n && not (Value.equal (Core.value_lit b terms.(i).Constr.lit) Value.Unknown) then
        go (i + 1)
      else i
    in
    go 0
  in
  let note_fixpoint () =
    let tight = ref false in
    Hashtbl.iter
      (fun row (terms, degree, _) ->
        let sum =
          Array.fold_left
            (fun acc (t : Constr.term) ->
              if Value.equal (Core.value_lit b t.lit) Value.False then acc else acc + t.coeff)
            0 terms
        in
        if sum - !degree < terms.(0).Constr.coeff then begin
          tight := true;
          Hashtbl.replace tight_rows row (first_unassigned terms)
        end)
      seen_rows;
    if !tight then incr tight_fixpoints
  in
  let around_backjump f =
    if !tight_fixpoints >= 2 then incr tight_runs;
    let true_now lits = List.filter (fun l -> Value.equal (Core.value_lit b l) Value.True) lits in
    let before = Hashtbl.fold (fun _ lits acc -> true_now lits :: acc) excluded [] in
    f ();
    List.iter
      (fun lits ->
        if List.exists (fun l -> Value.equal (Core.value_lit b l) Value.Unknown) lits then
          incr excluded_reverts)
      before;
    Hashtbl.iter
      (fun row first ->
        let terms, _, _ = Hashtbl.find seen_rows row in
        if first_unassigned terms < first then incr rewinds)
      tight_rows;
    Hashtbl.reset tight_rows;
    tight_fixpoints := 0
  in
  let backjump lvl =
    around_backjump (fun () ->
        Core.backjump_to a lvl;
        Core.backjump_to b lvl);
    same "after backjump"
  in
  let resolve ca cb =
    if ca <> cb then fail "conflict cids %d vs %d" ca cb;
    around_backjump (fun () ->
        let ra = Core.resolve_conflict a ca and rb = Core.resolve_conflict b cb in
        if ra <> rb then fail "analyses differ");
    same "after analysis"
  in
  let add_cut i =
    let bound = bounds.(i) in
    bound := !bound - 1 - Random.State.int rng 3;
    match Constr.family_at sources.(i) !bound with
    | Constr.Trivial_true | Constr.Trivial_false -> ()
    | Constr.Constr c ->
      let ra = Core.add_constraint_dynamic a c in
      let row, rb = Core.add_cut b ?row:!(rows.(i)) c in
      rows.(i) := row;
      (match row with
      | None -> incr plain_cuts
      | Some row -> (
        match Hashtbl.find_opt seen_rows row with
        | Some (_, degree, count) ->
          degree := max !degree (Constr.degree c);
          incr count
        | None ->
          let terms = Constr.terms c in
          Hashtbl.add seen_rows row (terms, ref (Constr.degree c), ref 1);
          let t0 = terms.(0) in
          if Hashtbl.find cost_of t0.lit / t0.coeff <> objective_gcd then incr scaled_rows;
          let in_row l =
            Array.exists (fun (t : Constr.term) -> Lit.equal t.lit (Lit.negate l)) terms
          in
          Hashtbl.add excluded row
            (List.filter_map (fun (_, l) -> if in_row l then None else Some l) cost_terms)));
      same "after cut";
      (match ra, rb with
      | None, None -> ()
      | Some ca, Some cb -> if not (Core.root_unsat a) then resolve ca cb
      | _ -> fail "cut conflict verdicts differ")
  in
  if deep then
    Array.iteri
      (fun i _ ->
        for _ = 1 to members do
          if not (Core.root_unsat a) then add_cut i
        done)
      sources;
  let rec walk fuel =
    if fuel > 0 && not (Core.root_unsat a) then begin
      (match Core.propagate a, Core.propagate b with
      | Some ca, Some cb ->
        same "at conflict";
        if not (Core.root_unsat a) then resolve ca cb
      | None, None -> (
        same "at fixpoint";
        note_fixpoint ();
        match Random.State.int rng (if deep then 40 else 10) with
        | 0 | 1 | 2 -> add_cut (Random.State.int rng (Array.length sources))
        | 3 when not deep ->
          Core.reduce_db a;
          Core.reduce_db b;
          same "after reduce_db"
        | 4 when Core.decision_level a > 0 ->
          backjump (Random.State.int rng (Core.decision_level a))
        | _ -> (
          match Core.next_branch_var a, Core.next_branch_var b with
          | None, None -> ()
          | Some v, Some w when v = w ->
            let l = Lit.make v (Random.State.bool rng) in
            Core.decide a l;
            Core.decide b l
          | _ -> fail "branching differs"))
      | _ -> fail "conflict verdicts differ");
      walk (fuel - 1)
    end
    else fuel
  in
  let walked = walk fuel < fuel in
  Hashtbl.iter (fun _ (_, _, count) -> if !count >= members then incr big_rows) seen_rows;
  {
    walked;
    big_rows = !big_rows;
    tight_runs = !tight_runs;
    rewinds = !rewinds;
    scaled_rows = !scaled_rows;
    excluded_reverts = !excluded_reverts;
    plain_cuts = !plain_cuts;
  }

let qcheck_rows_lockstep =
  QCheck2.Test.make ~name:"cut rows propagate like plain constraints in every mode" ~count:60
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let problem = Gen.planted ~nvars:12 ~nconstrs:12 seed in
      List.iter (fun (m, _) -> ignore (rows_lockstep problem m seed)) modes;
      true)

(* The lockstep check only runs on instances that are not refuted at
   the root, so the instances it draws must mostly get that far. *)
let rows_lockstep_walks () =
  let runs = ref 0 and walked = ref 0 in
  for seed = 0 to 19 do
    let problem = Gen.planted ~nvars:12 ~nconstrs:12 seed in
    List.iter
      (fun (m, _) ->
        incr runs;
        if (rows_lockstep problem m seed).walked then incr walked)
      modes
  done;
  if 10 * !walked < 9 * !runs then
    Alcotest.failf "the lockstep walk ran in only %d of %d runs" !walked !runs

(* Many overlapping sources and a long walk on satisfiable problems: one
   dequeue then reaches several rows at once and acts on many members of
   each, interleaved in arena order, and each row is scanned again on
   later dequeues and after backjumps. *)
let qcheck_many_rows_lockstep =
  QCheck2.Test.make ~name:"many cut rows per dequeue propagate like plain constraints"
    ~count:30
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let problem = Gen.planted seed in
      List.iter (fun (m, _) -> ignore (rows_lockstep ~nsources:10 ~fuel:600 problem m seed)) modes;
      true)

(* Rows of many members, walked deep between backjumps. *)
let deep_problem seed = Gen.planted ~nvars:20 ~nconstrs:16 seed

let qcheck_deep_rows_lockstep =
  QCheck2.Test.make ~name:"rows of many members propagate like plain constraints" ~count:30
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let problem = deep_problem seed in
      List.iter
        (fun (m, _) -> ignore (rows_lockstep ~nsources:3 ~fuel:400 ~deep:true problem m seed))
        modes;
      true)

(* The deep walk must see what it is there for: rows of at least 8
   members, two or more tight fixpoints between backjumps, and
   backjumps that unassign a term before a tight row's first
   unassigned one, where its cursor stood. *)
let deep_rows_reach () =
  let big = ref 0 and runs = ref 0 and rewinds = ref 0 in
  for seed = 0 to 9 do
    let w = rows_lockstep ~nsources:3 ~fuel:400 ~deep:true (deep_problem seed) Core.Hybrid seed in
    big := !big + w.big_rows;
    runs := !runs + w.tight_runs;
    rewinds := !rewinds + w.rewinds
  done;
  if !big < 15 then Alcotest.failf "only %d rows of 8 or more members in 10 walks" !big;
  if !runs < 20 then Alcotest.failf "only %d backjumps after several tight fixpoints" !runs;
  if !rewinds < 20 then Alcotest.failf "only %d backjumps rewound a tight row" !rewinds

(* Costs with shared factors, so that a row's exclusion often changes
   the gcd and the row's coefficients are its costs over a factor above
   the objective's; and a source whose terms repeat a variable. *)
let scaled_problem seed =
  Gen.planted ~nvars:12 ~nconstrs:12
    ~cost:(fun rng -> [| 2; 4; 6; 8; 12; 3 |].(Random.State.int rng 6))
    seed

let qcheck_scaled_rows_lockstep =
  QCheck2.Test.make ~name:"rows over a changed gcd and raw cuts propagate like plain constraints"
    ~count:40
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let problem = scaled_problem seed in
      List.iter
        (fun (m, _) -> ignore (rows_lockstep ~nsources:3 ~fuel:300 ~mixed:true problem m seed))
        modes;
      true)

(* The scaled walk must see what it is there for: rows whose exclusion
   changed the gcd, backjumps that revert a false excluded term of a
   row (counted per row), and cuts (saturated or raw) that take the plain path (measured
   over these 10 walks: 33, 279 and 234). *)
let scaled_rows_reach () =
  let scaled = ref 0 and reverts = ref 0 and plain = ref 0 in
  for seed = 0 to 9 do
    let w =
      rows_lockstep ~nsources:3 ~fuel:300 ~mixed:true (scaled_problem seed) Core.Hybrid seed
    in
    scaled := !scaled + w.scaled_rows;
    reverts := !reverts + w.excluded_reverts;
    plain := !plain + w.plain_cuts
  done;
  if !scaled < 20 then Alcotest.failf "only %d rows changed the gcd in 10 walks" !scaled;
  if !reverts < 100 then
    Alcotest.failf "only %d (backjump, row) pairs reverted an excluded term" !reverts;
  if !plain < 100 then Alcotest.failf "only %d cuts took the plain path" !plain

(* --- per-mode population sanity -------------------------------------------- *)

(* Forced modes must register every (multi-literal) constraint in their
   mode; hybrid must use both on a mixed instance. *)
let mode_populations () =
  let problem = Gen.problem 5 in
  let pops bcp =
    let tel = Telemetry.Ctx.silent () in
    let engine = Core.create ~telemetry:tel ~bcp problem in
    ignore (Core.propagate engine);
    let stats = Core.bcp_stats engine in
    ( Telemetry.Counter.get stats.Core.b_nwatched,
      Telemetry.Counter.get stats.Core.b_ncounting )
  in
  let w_watched, w_counting = pops Core.Watched in
  let c_watched, c_counting = pops Core.Counting in
  if w_watched = 0 then Alcotest.fail "forced watched registered no watched constraints";
  if c_watched <> 0 then Alcotest.fail "forced counting registered watched constraints";
  if c_counting = 0 then Alcotest.fail "forced counting registered no counting constraints";
  ignore w_counting

let suite =
  [
    Alcotest.test_case "lockstep engines agree at every fixpoint" `Slow lockstep_walk;
    QCheck_alcotest.to_alcotest qcheck_solver_equivalence;
    Alcotest.test_case "covering instances agree across modes and LB methods" `Slow
      solver_equivalence_covering;
    Alcotest.test_case "recordings replay across modes" `Slow cross_mode_replay;
    Alcotest.test_case "forced modes register accordingly" `Quick mode_populations;
    QCheck_alcotest.to_alcotest qcheck_rows_lockstep;
    Alcotest.test_case "cut-row lockstep reaches its walk" `Quick rows_lockstep_walks;
    QCheck_alcotest.to_alcotest qcheck_many_rows_lockstep;
    QCheck_alcotest.to_alcotest qcheck_deep_rows_lockstep;
    Alcotest.test_case "deep cut-row walks reach many members and rewinds" `Quick
      deep_rows_reach;
    QCheck_alcotest.to_alcotest qcheck_scaled_rows_lockstep;
    Alcotest.test_case "scaled cut-row walks reach gcd rows, reverts and plain cuts" `Quick
      scaled_rows_reach;
  ]
