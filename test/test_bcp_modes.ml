(* Propagation against an independent reference, and cut rows against
   plain constraints.  The fixpoint oracle recomputes what a propagation
   fixpoint must satisfy from the stored constraints and the trail
   alone; it shares nothing with the engine's watch sets, lagged slacks
   or row sums. *)
open Pbo
module Core = Engine.Solver_core

(* --- a from-scratch fixpoint oracle ------------------------------------------ *)

(* The stored constraints (problem, learned and cut-row members), by cid. *)
let stored e =
  let acc = ref [] in
  Core.iter_constraints e (fun ~learned:_ c -> acc := c :: !acc);
  Array.of_list (List.rev !acc)

(* The coefficient sum of the terms [is_false] does not name, minus the
   degree. *)
let slack_with is_false c =
  Array.fold_left
    (fun acc { Constr.coeff; lit } -> if is_false lit then acc else acc + coeff)
    (-Constr.degree c) (Constr.terms c)

let is_false e l = Value.equal (Core.value_lit e l) Value.False
let failf seed fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_reportf "seed %d: %s" seed m) fmt

(* After [propagate] returned [None]: no stored constraint is violated,
   and none but the stale cuts has an unassigned term whose coefficient
   is above its slack.  Returns the numbers of single-term constraints
   and of cuts that are not stale it checked. *)
let check_fixpoint seed e ~cut =
  let units = ref 0 and fresh = ref 0 in
  Array.iteri
    (fun ci c ->
      if Constr.size c = 1 then incr units;
      let s = slack_with (is_false e) c in
      if s < 0 then failf seed "constraint %d has slack %d at a fixpoint" ci s;
      let state = cut c in
      if state = `Fresh then incr fresh;
      if state <> `Stale then
        Array.iter
          (fun { Constr.coeff; lit } ->
            if Value.equal (Core.value_lit e lit) Value.Unknown && coeff > s then
              failf seed "constraint %d leaves %s (coefficient %d) unassigned under slack %d" ci
                (Lit.to_string lit) coeff s)
          (Constr.terms c))
    (stored e);
  !units, !fresh

(* After [propagate] returned [Some ci]: [ci] is violated. *)
let check_conflict seed e ci =
  let s = Core.slack_of e ci in
  if s >= 0 then failf seed "conflict %d has slack %d" ci s

(* Every implied literal of the trail: its reason's slack, counting as
   false only the literals false before it on the trail, is below the
   literal's coefficient.  Returns the number of literals checked. *)
let check_reasons seed e =
  let cs = stored e in
  let trail = Array.of_list (Core.trail e) in
  let pos = Hashtbl.create 64 in
  Array.iteri (fun i (l, _) -> Hashtbl.replace pos (Lit.var l) i) trail;
  let implied = ref 0 in
  Array.iteri
    (fun i (l, reason) ->
      match reason with
      | None -> ()
      | Some r -> (
        incr implied;
        let c = cs.(r) in
        let false_before lit = is_false e lit && Hashtbl.find pos (Lit.var lit) < i in
        match Array.find_opt (fun t -> Lit.equal t.Constr.lit l) (Constr.terms c) with
        | None -> failf seed "trail %d: %s is not a term of its reason %d" i (Lit.to_string l) r
        | Some t ->
          let s = slack_with false_before c in
          if s >= t.coeff then
            failf seed "trail %d: reason %d had slack %d, not below %s's coefficient %d" i r s
              (Lit.to_string l) t.coeff))
    trail;
  !implied

type oracle_walk = {
  fixpoints : int;
  conflicts : int;
  implied : int;  (* implied trail literals checked, summed over the checks *)
  members : int;  (* cuts that joined a row *)
  units : int;  (* single-term constraints checked at fixpoints *)
  fresh : int;  (* cuts held to completeness at fixpoints *)
}

(* A random walk: decisions, backjumps, [reduce_db] and incumbent-style
   cuts from the objective at a falling bound (through [add_cut], so
   most become row members), each conflict resolved.  A leaf cuts off
   its own cost.

   A constraint added at decision level [d] is acted on when it is
   added and whenever one of its watched literals (for a row member,
   an objective literal its row holds) is dequeued.  Nothing looks at
   it when a backjump takes the search below [d], so an implication it
   has there waits for such a dequeue: completeness is only demanded of
   a cut while the search has stayed at or above the level it was
   added at.  It is still never violated at a fixpoint, and its
   implications have sound reasons.  Learned clauses need no such
   exception: each asserts at its backjump level and has two
   unassigned literals below it. *)
let oracle_walk ?(fuel = 200) problem seed =
  let rng = Random.State.make [| seed; 0x0ac1e |] in
  let e = Core.create problem in
  let fixpoints = ref 0 and conflicts = ref 0 and implied = ref 0 in
  let members = ref 0 and units = ref 0 and fresh = ref 0 in
  let source, bound =
    match Problem.objective problem with
    | None -> None, ref 0
    | Some o ->
      let terms =
        Array.to_list (Array.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) o.cost_terms)
      in
      Some (Constr.family terms), ref (List.fold_left (fun acc (c, _) -> acc + c) 0 terms)
  in
  let row = ref None in
  (* the cuts added so far, by terms and degree: their level, and
     whether a backjump has gone below it since *)
  let cuts = Hashtbl.create 16 in
  let key c = Constr.degree c, Constr.terms c in
  let cut c =
    match Hashtbl.find_opt cuts (key c) with
    | Some (_, s) -> if !s then `Stale else `Fresh
    | None -> `Not_cut
  in
  let note_level () =
    let dl = Core.decision_level e in
    Hashtbl.iter (fun _ (lvl, s) -> if dl < lvl then s := true) cuts
  in
  let resolve ci = if not (Core.root_unsat e) then ignore (Core.resolve_conflict e ci) in
  let add_cut () =
    match source with
    | None -> Core.restart e
    | Some f -> (
      match Constr.family_at f !bound with
      | Constr.Trivial_true | Constr.Trivial_false -> ()
      | Constr.Constr c -> (
        Hashtbl.replace cuts (key c) (Core.decision_level e, ref false);
        let r, conflict = Core.add_cut e ?row:!row c in
        row := r;
        if r <> None then incr members;
        match conflict with
        | Some ci ->
          check_conflict seed e ci;
          resolve ci
        | None -> ()))
  in
  let rec walk fuel =
    if fuel > 0 && not (Core.root_unsat e) then begin
      (match Core.propagate e with
      | Some ci ->
        incr conflicts;
        check_conflict seed e ci;
        implied := !implied + check_reasons seed e;
        resolve ci
      | None -> (
        incr fixpoints;
        let u, f = check_fixpoint seed e ~cut in
        units := !units + u;
        fresh := !fresh + f;
        implied := !implied + check_reasons seed e;
        match Random.State.int rng 12 with
        | 0 | 1 ->
          bound := !bound - 1 - Random.State.int rng 3;
          add_cut ()
        | 2 -> Core.reduce_db e
        | 3 when Core.decision_level e > 0 ->
          Core.backjump_to e (Random.State.int rng (Core.decision_level e))
        | _ -> (
          match Core.next_branch_var e with
          | Some v -> Core.decide e (Lit.make v (Random.State.bool rng))
          | None ->
            bound := min !bound (Core.path_cost e - 1);
            add_cut ())));
      note_level ();
      walk (fuel - 1)
    end
  in
  walk fuel;
  {
    fixpoints = !fixpoints;
    conflicts = !conflicts;
    implied = !implied;
    members = !members;
    units = !units;
    fresh = !fresh;
  }

(* Loose random instances, most of which survive the root, and larger
   satisfiable ones. *)
let oracle_problems seed =
  [
    Gen.problem ~config:{ Gen.default with nvars = 12; nconstrs = 6 } seed;
    Gen.planted ~nvars:30 ~nconstrs:40 seed;
  ]

let qcheck_oracle =
  QCheck2.Test.make ~name:"propagation fixpoints hold against a from-scratch recomputation"
    ~count:100
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      List.iter (fun problem -> ignore (oracle_walk problem seed)) (oracle_problems seed);
      true)

(* The oracle must see what it is there for: many fixpoints, conflicts
   and implied literals, cuts that join rows and are held to
   completeness, and single-term constraints (propagated in watch-all).
   Measured over these 40 walks: 2171 fixpoints, 152 conflicts, 32672
   implied literals, 489 row members, 2169 single-term checks and 2247
   checks of cuts that are not stale. *)
let oracle_reach () =
  let total =
    ref { fixpoints = 0; conflicts = 0; implied = 0; members = 0; units = 0; fresh = 0 }
  in
  for seed = 0 to 19 do
    List.iter
      (fun problem ->
        let w = oracle_walk problem seed and t = !total in
        total :=
          {
            fixpoints = t.fixpoints + w.fixpoints;
            conflicts = t.conflicts + w.conflicts;
            implied = t.implied + w.implied;
            members = t.members + w.members;
            units = t.units + w.units;
            fresh = t.fresh + w.fresh;
          })
      (oracle_problems seed)
  done;
  let t = !total in
  if t.fixpoints < 1000 then Alcotest.failf "only %d fixpoints in 40 walks" t.fixpoints;
  if t.conflicts < 75 then Alcotest.failf "only %d conflicts in 40 walks" t.conflicts;
  if t.implied < 15_000 then Alcotest.failf "only %d implied literals in 40 walks" t.implied;
  if t.members < 200 then Alcotest.failf "only %d cuts joined rows in 40 walks" t.members;
  if t.units < 1000 then Alcotest.failf "only %d single-term constraints checked" t.units;
  if t.fresh < 1000 then Alcotest.failf "only %d cuts held to completeness" t.fresh

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
    problem seed =
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
  let a = Core.create problem and b = Core.create problem in
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
  QCheck2.Test.make ~name:"cut rows propagate like plain constraints" ~count:60
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      ignore (rows_lockstep (Gen.planted ~nvars:12 ~nconstrs:12 seed) seed);
      true)

(* The lockstep check only runs on instances that are not refuted at
   the root, so the instances it draws must mostly get that far. *)
let rows_lockstep_walks () =
  let runs = ref 0 and walked = ref 0 in
  for seed = 0 to 19 do
    incr runs;
    if (rows_lockstep (Gen.planted ~nvars:12 ~nconstrs:12 seed) seed).walked then incr walked
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
      ignore (rows_lockstep ~nsources:10 ~fuel:600 (Gen.planted seed) seed);
      true)

(* Rows of many members, walked deep between backjumps. *)
let deep_problem seed = Gen.planted ~nvars:20 ~nconstrs:16 seed

let qcheck_deep_rows_lockstep =
  QCheck2.Test.make ~name:"rows of many members propagate like plain constraints" ~count:30
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      ignore (rows_lockstep ~nsources:3 ~fuel:400 ~deep:true (deep_problem seed) seed);
      true)

(* The deep walk must see what it is there for: rows of at least 8
   members, two or more tight fixpoints between backjumps, and
   backjumps that unassign a term before a tight row's first
   unassigned one, where its cursor stood. *)
let deep_rows_reach () =
  let big = ref 0 and runs = ref 0 and rewinds = ref 0 in
  for seed = 0 to 9 do
    let w = rows_lockstep ~nsources:3 ~fuel:400 ~deep:true (deep_problem seed) seed in
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
      ignore (rows_lockstep ~nsources:3 ~fuel:300 ~mixed:true (scaled_problem seed) seed);
      true)

(* The scaled walk must see what it is there for: rows whose exclusion
   changed the gcd, backjumps that revert a false excluded term of a
   row (counted per row), and cuts (saturated or raw) that take the plain path (measured
   over these 10 walks: 33, 279 and 234). *)
let scaled_rows_reach () =
  let scaled = ref 0 and reverts = ref 0 and plain = ref 0 in
  for seed = 0 to 9 do
    let w = rows_lockstep ~nsources:3 ~fuel:300 ~mixed:true (scaled_problem seed) seed in
    scaled := !scaled + w.scaled_rows;
    reverts := !reverts + w.excluded_reverts;
    plain := !plain + w.plain_cuts
  done;
  if !scaled < 20 then Alcotest.failf "only %d rows changed the gcd in 10 walks" !scaled;
  if !reverts < 100 then
    Alcotest.failf "only %d (backjump, row) pairs reverted an excluded term" !reverts;
  if !plain < 100 then Alcotest.failf "only %d cuts took the plain path" !plain

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_oracle;
    Alcotest.test_case "the fixpoint oracle reaches conflicts, rows and units" `Quick oracle_reach;
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
