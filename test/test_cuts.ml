(* Cut separation soundness: every separated cut must be violated by
   the fractional point it was separated against, yet satisfied by every
   integral assignment the source constraint (cover/clique) or problem
   (implied bounds) admits — i.e. cuts slice off fractional vertices
   only.  Cross-checked by exhaustive model counting: appending a cut to
   its problem never changes the model count.  In proof mode every cut
   entering the pool carries a derivation the checker replays. *)

open Pbo
module Core = Engine.Solver_core

(* Deterministic pseudo-fractional point: var v of seed s gets a value
   in (0,1) that is rarely integral, the interesting regime for
   separation. *)
let xval_of_seed seed v =
  let h = (v + 1) * 2654435761 + (seed * 40503) in
  let u = float_of_int (abs h mod 1000) /. 1000. in
  0.05 +. (0.9 *. u)

(* All 2^n assignments satisfying [pred]. *)
let assignments nvars =
  List.init (1 lsl nvars) (fun mask -> fun (l : Lit.t) ->
      let v = Lit.var l in
      let bit = (mask lsr v) land 1 = 1 in
      if Lit.is_pos l then bit else not bit)

let satisfies c asg = Constr.satisfied_by asg c

(* A cut separated from one constraint is valid iff every assignment
   satisfying the source satisfies the cut. *)
let cut_valid_for ~nvars source cut =
  List.for_all
    (fun asg -> (not (satisfies source asg)) || satisfies cut asg)
    (assignments nvars)

let check_family name separate seed =
  let problem = Gen.problem seed in
  let nvars = Problem.nvars problem in
  let xval = xval_of_seed seed in
  Array.iteri
    (fun cid c ->
      match separate xval (cid, c) with
      | None -> ()
      | Some (cut, _recipe) ->
        if Cuts.violation xval cut <= 0. then
          Alcotest.failf "seed %d cid %d: %s cut %s not violated at the point" seed cid name
            (Constr.to_string cut);
        if not (cut_valid_for ~nvars c cut) then
          Alcotest.failf "seed %d cid %d: %s cut %s cuts off an integral solution of %s" seed
            cid name (Constr.to_string cut) (Constr.to_string c))
    (Problem.constraints problem)

let cover_cuts_valid () = for seed = 0 to 60 do check_family "cover" Cuts.cover_cut seed done
let clique_cuts_valid () = for seed = 0 to 60 do check_family "clique" Cuts.clique_cut seed done

(* Implied-bound cuts are problem-level: the mined clause must hold in
   every model of the whole problem. *)
let implied_cuts_valid () =
  for seed = 0 to 30 do
    let problem = Gen.problem seed in
    let nvars = Problem.nvars problem in
    let engine = Core.create problem in
    let models =
      List.filter
        (fun asg -> Array.for_all (fun c -> satisfies c asg) (Problem.constraints problem))
        (assignments nvars)
    in
    List.iter
      (fun (l, m) ->
        List.iter
          (fun asg ->
            if asg l && not (asg m) then
              Alcotest.failf "seed %d: mined implication %s -> %s fails in a model" seed
                (Lit.to_string l) (Lit.to_string m))
          models;
        Alcotest.(check int) "engine back at level 0" 0 (Core.decision_level engine))
      (Cuts.mine_implications engine)
  done

(* Literals fixed at level 0 before mining are no implications: [x2]
   is fixed by its unit clause when the engine is created, and probing
   [x0] forces [x1].  Only the level-1 consequence may be mined. *)
let implications_skip_root_literals () =
  let x i = Lit.make i true in
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_clause b [ x 2 ];
  Problem.Builder.add_clause b [ Lit.negate (x 0); x 1 ];
  let engine = Core.create (Problem.Builder.build b) in
  let imps = Cuts.mine_implications engine in
  List.iter
    (fun (l, m) ->
      if not (Value.equal (Core.value_lit engine m) Value.Unknown) then
        Alcotest.failf "mined %s -> %s, whose consequent is fixed at level 0" (Lit.to_string l)
          (Lit.to_string m))
    imps;
  Alcotest.(check bool) "x0 -> x1 mined" true (List.mem (x 0, x 1) imps)

(* Pool separation: fresh entries are violated, mutually distinct, and
   appending any of them to the problem preserves the exact model count
   (exhaustive, small nvars). *)
let pool_separation_sound () =
  for seed = 0 to 40 do
    let problem = Gen.problem seed in
    (* a trivially-unsat instance loses its Trivial_false marker when
       rebuilt from its constraints array, skewing the count comparison *)
    if not (Problem.trivially_unsat problem) then begin
    let engine = Core.create problem in
    let tel = Telemetry.Ctx.create () in
    let pool = Cuts.Pool.create tel in
    Cuts.Pool.note_implications pool (Cuts.mine_implications engine);
    let xval = xval_of_seed seed in
    let entries =
      Cuts.Pool.separate pool engine ~x:(Array.init (Problem.nvars problem) xval)
    in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (e : Cuts.Pool.entry) ->
        let c = e.cut.Cuts.constr in
        let key = Constr.to_string c in
        if Hashtbl.mem seen key then Alcotest.failf "seed %d: duplicate cut %s" seed key;
        Hashtbl.add seen key ();
        if Cuts.violation xval c <= 0. then
          Alcotest.failf "seed %d: pooled cut %s not violated" seed key;
        let with_cut =
          let b = Problem.Builder.create ~nvars:(Problem.nvars problem) () in
          Array.iter (fun c0 -> Problem.Builder.add_norm b (Constr.Constr c0))
            (Problem.constraints problem);
          Problem.Builder.add_norm b (Constr.Constr c);
          Problem.Builder.build b
        in
        let before = Bsolo.Exhaustive.count_models problem in
        let after = Bsolo.Exhaustive.count_models with_cut in
        if before <> after then
          Alcotest.failf "seed %d: cut %s changed the model count (%d -> %d)" seed key before
            after)
      entries
    end
  done

(* [cuts.<family>.tight] counts cuts, not solves: a cut whose dual is
   nonzero at many optimal solves is counted once, so the tight-rate
   [bsolo inspect] prints (tight / applied) never passes 100%. *)
let tight_counted_once () =
  let checked = ref 0 in
  for seed = 0 to 40 do
    let problem = Gen.problem seed in
    let engine = Core.create problem in
    let tel = Telemetry.Ctx.create () in
    let pool = Cuts.Pool.create tel in
    Cuts.Pool.note_implications pool (Cuts.mine_implications engine);
    let entries =
      Cuts.Pool.separate pool engine ~x:(Array.init (Problem.nvars problem) (xval_of_seed seed))
    in
    if entries <> [] then begin
      incr checked;
      List.iteri (fun i (e : Cuts.Pool.entry) -> e.row <- i) entries;
      let duals = Array.make (List.length entries) 1.0 in
      for _ = 1 to 5 do
        Cuts.Pool.observe pool ~duals
      done;
      List.iter
        (fun fam ->
          let get field =
            Option.value ~default:0
              (Telemetry.Registry.find_counter tel.Telemetry.Ctx.registry
                 (Printf.sprintf "cuts.%s.%s" fam field))
          in
          (* every applied cut had a nonzero dual, five times over *)
          if get "tight" <> get "applied" then
            Alcotest.failf "seed %d: %s cuts tight %d times, %d applied" seed fam (get "tight")
              (get "applied"))
        [ "cover"; "clique"; "implied" ]
    end
  done;
  if !checked = 0 then Alcotest.fail "no seed separated a cut"

(* Proof mode: every pooled cut must carry a derivation, and the whole
   log (cuts included) must replay through the exact checker. *)
let pooled_cuts_certified () =
  for seed = 0 to 20 do
    let problem = Gen.problem seed in
    let buf = Buffer.create 1024 in
    let sink = Proof.Sink.of_buffer buf in
    let proof = Proof.create sink problem in
    let engine = Core.create problem in
    let tel = Telemetry.Ctx.create () in
    let pool = Cuts.Pool.create ~proof tel in
    Cuts.Pool.note_implications pool (Cuts.mine_implications engine);
    let entries =
      Cuts.Pool.separate pool engine ~x:(Array.init (Problem.nvars problem) (xval_of_seed seed))
    in
    List.iter
      (fun (e : Cuts.Pool.entry) ->
        match e.cut.Cuts.proof_ref with
        | Some r when r < 0 -> ()
        | Some r -> Alcotest.failf "seed %d: cut with non-derived proof ref %d" seed r
        | None -> Alcotest.failf "seed %d: uncertified cut entered the pool in proof mode" seed)
      entries;
    Proof.log_conclusion proof Proof.No_claim;
    Proof.Sink.close sink;
    match Proof.Check.check_string problem (Buffer.contents buf) with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "seed %d: cut derivations rejected: %s" seed msg
  done

(* The separation loop without its skip filters: every implication goes
   through [implied_cut], every source row through [clique_cut] and
   [cover_cut], and candidates are deduplicated by their printed form.
   [Pool.separate] must return exactly what this returns, round after
   round, with the same per-family counters and (in proof mode) the
   same proof log. *)
module Separate_ref = struct
  type t = {
    proof : Proof.t option;
    max_active : int;
    max_per_round : int;
    sources : (int * Constr.t) list;
    mutable implications : (Lit.t * Lit.t) list;
    seen : (string, unit) Hashtbl.t;
    mutable active : int;
    counts : (string, int) Hashtbl.t;  (* "cuts.<family>.<separated|applied>" *)
  }

  let create ?proof ~max_active engine implications =
    {
      proof;
      max_active;
      max_per_round = 8;
      sources = List.filter (fun (_, c) -> Constr.max_coeff c >= 2) (Core.lb_constraints engine);
      implications;
      seen = Hashtbl.create 64;
      active = 0;
      counts = Hashtbl.create 8;
    }

  let bump r family what =
    let key = Printf.sprintf "cuts.%s.%s" (Cuts.family_name family) what in
    Hashtbl.replace r.counts key (1 + Option.value ~default:0 (Hashtbl.find_opt r.counts key))

  let certify r constr recipe =
    match r.proof, recipe with
    | None, _ -> Some None
    | Some proof, Cuts.Division { refs; divisor } -> (
      match Proof.log_derived proof ~refs ~divisor with
      | Some (k, c) when Constr.equal c constr -> Some (Some (-(k + 1)))
      | Some _ | None -> None)
    | Some proof, Cuts.Rup lits -> (
      match Proof.log_rup proof lits with
      | Some (k, c) when Constr.equal c constr -> Some (Some (-(k + 1)))
      | Some _ | None -> None)

  let separate r ~xval =
    if r.active >= r.max_active || (r.sources = [] && r.implications = []) then []
    else begin
      let budget = ref r.max_per_round in
      let out = ref [] in
      let consider family (constr, recipe) =
        if !budget <= 0 then false
        else begin
          let key = Constr.to_string constr in
          if not (Hashtbl.mem r.seen key) then begin
            Hashtbl.add r.seen key ();
            bump r family "separated";
            match certify r constr recipe with
            | None -> ()
            | Some proof_ref ->
              decr budget;
              bump r family "applied";
              r.active <- r.active + 1;
              out := (family, constr, proof_ref) :: !out
          end;
          true
        end
      in
      r.implications <-
        List.filter
          (fun imp ->
            match Cuts.implied_cut xval imp with
            | None -> true
            | Some cand -> not (consider Cuts.Implied cand))
          r.implications;
      List.iter
        (fun src ->
          Option.iter (fun cand -> ignore (consider Cuts.Clique cand)) (Cuts.clique_cut xval src);
          Option.iter (fun cand -> ignore (consider Cuts.Cover cand)) (Cuts.cover_cut xval src))
        r.sources;
      List.rev !out
    end
end

(* A point for one separation round: each variable is integral with
   probability [p_int] (so whole rows are often integral, satisfied or
   not), fractional otherwise; then a few mined implications [l -> m]
   are placed on the violation threshold, [v_l - v_m = 0.01 + delta]
   with [delta] within a few float steps of zero on either side. *)
let separation_point rng ~nvars ~p_int imps =
  let x =
    Array.init nvars (fun _ ->
        if Random.State.float rng 1. < p_int then if Random.State.bool rng then 1. else 0.
        else Random.State.float rng 1.)
  in
  let set l value = x.(Lit.var l) <- (if Lit.is_pos l then value else 1. -. value) in
  let deltas = [| 0.; 1e-12; -1e-12; 1e-15; -1e-15; 5e-10; -5e-10; 2e-9; -2e-9; 1e-3; -1e-3 |] in
  let imps = Array.of_list imps in
  if Array.length imps > 0 then
    for _ = 1 to 1 + Random.State.int rng 4 do
      let l, m = imps.(Random.State.int rng (Array.length imps)) in
      let vl = 0.011 +. Random.State.float rng 0.98 in
      set l vl;
      set m (vl -. 0.01 -. deltas.(Random.State.int rng (Array.length deltas)))
    done;
  x

let separate_matches_reference seed =
  let rng = Random.State.make [| seed; 0x5e9a |] in
  let config =
    {
      Gen.default with
      nvars = 8 + Random.State.int rng 7;
      nconstrs = 8 + Random.State.int rng 10;
      max_arity = 3 + Random.State.int rng 4;
      max_coeff = 2 + Random.State.int rng 6;
    }
  in
  let problem = Gen.problem ~config seed in
  let nvars = Problem.nvars problem in
  let proof_mode = Random.State.bool rng in
  let make_proof () =
    let buf = Buffer.create 256 in
    (buf, Proof.create (Proof.Sink.of_buffer buf) problem)
  in
  let pbuf, proof = make_proof () and rbuf, rproof = make_proof () in
  let proof = if proof_mode then Some proof else None in
  let rproof = if proof_mode then Some rproof else None in
  let engine = Core.create problem in
  let imps = Cuts.mine_implications engine in
  let tel = Telemetry.Ctx.create () in
  let max_active = 4 + Random.State.int rng 40 in
  let pool = Cuts.Pool.create ?proof ~max_active tel in
  Cuts.Pool.note_implications pool imps;
  let oracle = Separate_ref.create ?proof:rproof ~max_active engine imps in
  let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_reportf "seed %d: %s" seed m) fmt in
  for round = 1 to 12 do
    let p_int = [| 0.; 0.5; 0.8; 0.95; 1. |].(Random.State.int rng 5) in
    let x = separation_point rng ~nvars ~p_int imps in
    let xval v = x.(v) in
    let got =
      List.map
        (fun (e : Cuts.Pool.entry) -> (e.cut.Cuts.family, e.cut.Cuts.constr, e.cut.Cuts.proof_ref))
        (Cuts.Pool.separate pool engine ~x)
    in
    let want = Separate_ref.separate oracle ~xval in
    if got <> want then
      fail "round %d: cuts differ from the unfiltered loop's (%d against %d)" round
        (List.length got) (List.length want);
    let counters = Telemetry.Registry.counters tel.registry in
    List.iter
      (fun family ->
        List.iter
          (fun what ->
            let key = Printf.sprintf "cuts.%s.%s" (Cuts.family_name family) what in
            let have = Option.value ~default:0 (List.assoc_opt key counters) in
            let ref_n = Option.value ~default:0 (Hashtbl.find_opt oracle.counts key) in
            if have <> ref_n then fail "round %d: %s = %d, the unfiltered loop %d" round key have ref_n)
          [ "separated"; "applied" ])
      [ Cuts.Cover; Cuts.Clique; Cuts.Implied ]
  done;
  if Buffer.contents pbuf <> Buffer.contents rbuf then fail "proof logs differ";
  true

let qcheck_separate_matches_reference =
  QCheck2.Test.make ~name:"filtered separation returns the unfiltered loop's cuts" ~count:200
    QCheck2.Gen.(int_bound 100_000)
    separate_matches_reference

(* End-to-end: --cuts=tree and --cuts=off must land on identical
   optima (cuts shape the bound, never the answer). *)
let cuts_preserve_optimum () =
  for seed = 0 to 40 do
    let problem = Gen.problem seed in
    let solve cuts =
      Bsolo.Outcome.best_cost
        (Bsolo.Solver.solve ~options:{ Bsolo.Options.default with cuts } problem)
    in
    let reference = Bsolo.Exhaustive.optimum problem in
    match reference, solve Bsolo.Options.Cuts_off, solve Bsolo.Options.Cuts_tree with
    | None, None, None -> ()
    | Some (_, opt), Some a, Some b ->
      if a <> opt || b <> opt then
        Alcotest.failf "seed %d: optimum drifted (brute %d, off %s, tree %s)" seed opt
          (string_of_int a) (string_of_int b)
    | _ -> Alcotest.failf "seed %d: status mismatch across cut modes" seed
  done

let suite =
  [
    Alcotest.test_case "cover cuts valid" `Quick cover_cuts_valid;
    Alcotest.test_case "clique cuts valid" `Quick clique_cuts_valid;
    Alcotest.test_case "implied cuts valid" `Quick implied_cuts_valid;
    Alcotest.test_case "implications skip root literals" `Quick implications_skip_root_literals;
    Alcotest.test_case "pool separation sound" `Slow pool_separation_sound;
    Alcotest.test_case "pooled cuts certified" `Quick pooled_cuts_certified;
    Alcotest.test_case "tight counts each cut once" `Quick tight_counted_once;
    QCheck_alcotest.to_alcotest qcheck_separate_matches_reference;
    Alcotest.test_case "cut modes agree on optimum" `Slow cuts_preserve_optimum;
  ]
