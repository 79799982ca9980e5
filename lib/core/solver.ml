open Pbo
module Core = Engine.Solver_core

let log_src = Logs.Src.create "bsolo" ~doc:"bsolo search progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One source of incumbent cuts — the knapsack row (10) or one
   cardinality row (11)-(13) — with the engine row its latest cut joined
   (the next one starts a new row if saturation changes its terms). *)
type cut_source = {
  krow : Knapsack.row;
  cuts : Lowerbound.Instr.counter;  (* cuts.knapsack or cuts.cardinality *)
  mutable erow : Core.row option;
}

type search_state = {
  engine : Core.t;
  tel : Telemetry.Ctx.t;
  recorder : Telemetry.Recorder.t;  (* flight recorder (tel.recorder, hoisted) *)
  proc : string;  (* lower-case lb_method name, the recorder's blame label *)
  options : Options.t;
  offset : int;
  satisfaction : bool;
  mutable upper : int;  (* incumbent cost, offset excluded *)
  mutable best : (Model.t * int) option;
  nodes : Telemetry.Counter.t;
  lb_calls : Telemetry.Counter.t;
  lb_skips : Telemetry.Counter.t;  (* evaluations suppressed by the adaptive policy *)
  input : Problem.t;  (* the problem as given: every offered model is checked against it *)
  mutable last_import : Model.t option;  (* the last model polled, so each is checked once *)
  track : Lowerbound.Track.t;  (* bound-quality instruments for lb_method *)
  mutable lpr_inc : Lowerbound.Lpr.inc option;  (* warm LP state, created lazily *)
  mutable mis : Lowerbound.Mis.t option;  (* prepared MIS rows, created lazily *)
  mutable cuts : Cuts.config option;  (* separation pool, built after preprocessing *)
  mutable cut_sources : cut_source list option;  (* prepared at the first incumbent *)
  mutable lb_skip : int;  (* adaptive lower-bound interval, 1..8 nodes *)
  mutable lb_noprune : int;  (* consecutive evaluations that failed to prune *)
  mutable max_learned : int;
  mutable restart_budget : int;
  mutable conflicts_since_restart : int;
  luby : Engine.Luby.t;
  reduced : (Core.cid, unit) Hashtbl.t;  (* constraints already cardinality-reduced *)
  start : float;
  deadline : float option;
}

(* Search outcome before packaging. *)
type verdict =
  | Exhausted  (* search space closed: optimum or unsatisfiability proved *)
  | Out_of_budget

let lb_compute st =
  let cap = st.upper - Core.path_cost st.engine in
  Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Lower_bound (fun () ->
      match st.options.lb_method with
      | Options.Plain -> Lowerbound.Bound.none
      | Options.Mis ->
        let mis =
          match st.mis with
          | Some mis -> mis
          | None ->
            let mis = Lowerbound.Mis.create st.engine in
            st.mis <- Some mis;
            mis
        in
        Lowerbound.Mis.compute mis
      | Options.Lgr -> Lowerbound.Lgr.compute ~iters:st.options.lgr_iters st.engine ~cap
      | Options.Lpr ->
        let inc =
          match st.lpr_inc with
          | Some inc -> inc
          | None ->
            (* created at the first evaluation, i.e. after preprocessing
               settled the constraint set *)
            let inc = Lowerbound.Lpr.make ?cuts:st.cuts st.engine in
            st.lpr_inc <- Some inc;
            inc
        in
        Lowerbound.Lpr.compute_inc inc ~cap)

let out_of_budget st =
  let stats = Core.stats st.engine in
  Core.interrupted st.engine
  (* also poll the hook directly: the engine latches it on a propagation
     cadence, but replay needs the stop observed exactly at a loop top *)
  || (match st.options.should_stop with Some stop -> stop () | None -> false)
  || (match st.options.conflict_limit with
     | Some l -> Telemetry.Counter.get stats.conflicts >= l
     | None -> false)
  || (match st.options.node_limit with Some l -> Telemetry.Counter.get st.nodes >= l | None -> false)
  || (match st.deadline with Some d -> Unix.gettimeofday () > d | None -> false)

let maybe_reduce_db st =
  if st.options.reduce_db && Core.num_learned st.engine > st.max_learned then begin
    Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Reduce_db (fun () ->
        Core.reduce_db st.engine);
    Hashtbl.reset st.reduced;
    st.max_learned <- st.max_learned + (st.max_learned / 2)
  end

(* Galena-style learning ({!Options.learning}) on a propagation conflict,
   ahead of its 1UIP analysis: the cardinality reduction of a genuine PB
   conflict constraint, memoized per constraint, and with
   [Cutting_planes] a PB resolvent of the conflict.  Returns the conflict
   to analyze: the resolvent when one was learned (it is violated by
   construction, so at least as strong a start as the original). *)
let learn_cardinality_reduction st ci =
  if not (Hashtbl.mem st.reduced ci) then begin
    Hashtbl.replace st.reduced ci ();
    let c = Core.constr_of st.engine ci in
    if not (Constr.is_cardinality c) then begin
      let lits = Constr.fold_lits List.cons c [] in
      match Constr.cardinality lits (Constr.min_true_count c) with
      | Constr.Constr card -> ignore (Core.add_constraint_dynamic st.engine card)
      | Constr.Trivial_true | Constr.Trivial_false -> ()
    end
  end

let learn_pb_resolvent st ci =
  match Core.derive_pb_resolvent st.engine ci with
  | None -> ci
  | Some resolvent ->
    (* [None] cannot happen: the resolvent is violated under the current
       assignment *)
    Option.value (Core.add_constraint_dynamic st.engine resolvent) ~default:ci

let learn_from_conflict st ci =
  match st.options.learning with
  | Options.Clauses -> ci
  | Options.Cardinality ->
    learn_cardinality_reduction st ci;
    ci
  | Options.Cutting_planes ->
    learn_cardinality_reduction st ci;
    learn_pb_resolvent st ci

let maybe_restart st =
  st.conflicts_since_restart <- st.conflicts_since_restart + 1;
  if st.options.restarts && st.conflicts_since_restart >= st.restart_budget then begin
    st.conflicts_since_restart <- 0;
    st.restart_budget <- Engine.Luby.next st.luby;
    Core.restart st.engine;
    Telemetry.Recorder.restart st.recorder
  end

let cut_sources st =
  match st.cut_sources with
  | Some sources -> sources
  | None ->
    let problem = Core.problem st.engine in
    let source kind =
      let cuts = Lowerbound.Instr.counter st.tel.registry ("cuts." ^ kind) in
      fun krow -> { krow; cuts; erow = None }
    in
    let sources =
      (if st.options.knapsack_cuts then [ source "knapsack" (Knapsack.knapsack_row problem) ]
       else [])
      @
      if st.options.cardinality_inference then
        List.map (source "cardinality") (Knapsack.cardinality_rows problem)
      else []
    in
    st.cut_sources <- Some sources;
    sources

(* Push the knapsack cut (10) and the cardinality-inference cuts (13) for
   the new upper bound, each as a member of its source's row; returns a
   conflicting cut if any (expected: the knapsack cut is violated by the
   incumbent assignment itself). *)
let add_incumbent_cuts st =
  Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Cut_generation (fun () ->
      let add conflict src =
        (* The knapsack cut (10) needs no proof step: it is exactly the
           objective cut the checker introduces on its own at every
           verified solution, found or imported.  In proof mode a
           cardinality cut is only usable when its [d] step can
           reference the untouched original constraint; a cid aliased
           to a presolve tightening has no checker-side cut, so the
           inference is skipped rather than trusted. *)
        let loggable =
          match st.options.proof, src.krow.Knapsack.cid with
          | Some proof, Some cid -> Proof.log_cardinality_cut proof ~cid
          | Some _, None | None, _ -> true
        in
        if not loggable then conflict
        else
        match Knapsack.cut src.krow ~upper:st.upper with
        | Constr.Trivial_true -> conflict
        | Constr.Trivial_false ->
          (* no strictly better solution can exist; close the search by
             learning the empty bound *)
          Some `Root
        | Constr.Constr c ->
          Lowerbound.Instr.add src.cuts 1;
          let row, added = Core.add_cut st.engine ?row:src.erow c in
          src.erow <- row;
          (match conflict, added with
          | (Some _ as found), _ -> found
          | None, Some ci -> Some (`Cid ci)
          | None, None -> None)
      in
      List.fold_left add None (cut_sources st))

(* Where an offered incumbent comes from: a leaf of this search, or a
   portfolio peer's broadcast. *)
type source =
  | Found
  | Imported of string

(* The one incumbent entry point.  A model that improves on [upper] is
   adopted only if it satisfies the input problem and costs what its
   source claims ([cost], offset included); a refused one is counted.
   On adoption the proof log gets the verified witness, the telemetry
   its incumbent or import event, the eq. (10)-(13) cuts move to the
   new bound and the driver's own finds are broadcast.  Returns [None]
   when nothing was adopted, otherwise the conflicting cut, if any. *)
let offer st source m cost =
  if cost - st.offset >= st.upper then None
  else if
    Model.nvars m <> Problem.nvars st.input
    || (not (Model.satisfies st.input m))
    || Model.cost st.input m <> cost
  then begin
    Telemetry.Ctx.reject st.tel;
    Log.warn (fun k ->
        k "refused an incumbent claimed at cost %d (%s)" cost
          (match source with Found -> "own leaf" | Imported member -> "from " ^ member));
    None
  end
  else begin
    st.upper <- cost - st.offset;
    st.best <- Some (m, cost);
    (match st.options.proof with
    | Some proof -> Proof.log_solution proof ~cost m
    | None -> ());
    (match source with
    | Found -> Telemetry.Ctx.incumbent st.tel ~cost
    | Imported member -> Telemetry.Ctx.import st.tel ~cost ~member);
    Log.info (fun k ->
        k "incumbent %d%s after %d conflicts (%.2fs)" cost
          (match source with Found -> "" | Imported member -> " from " ^ member)
          (Telemetry.Counter.get (Core.stats st.engine).Core.conflicts)
          (Unix.gettimeofday () -. st.start));
    (match source, st.options.on_incumbent with
    | Found, Some broadcast -> broadcast m cost
    | Found, None | Imported _, _ -> ());
    Some (add_incumbent_cuts st)
  end

(* The portfolio's shared cell, polled at every loop top.  It returns
   the same model until a peer improves on it, so a model is offered
   once.  Satisfaction runs end at their own first model and import
   nothing. *)
let poll_import st =
  match st.options.external_incumbent with
  | None -> None
  | Some hook -> (
    match hook () with
    | Some (cost, m, member)
      when (not st.satisfaction)
           && cost - st.offset < st.upper
           && match st.last_import with Some seen -> seen != m | None -> true ->
      st.last_import <- Some m;
      offer st (Imported member) m cost
    | Some _ | None -> None)

(* A bound conflict (eq. 7) fired: build omega_bc and run conflict
   analysis on it.  With [bound_conflict_learning] off, the explanation
   degenerates to the negated decisions, i.e. chronological
   backtracking. *)
let bound_conflict_omega st (lower : Lowerbound.Bound.t) =
  if st.options.bound_conflict_learning then Lowerbound.Bound.omega_bc st.engine lower
  else List.map Lit.negate (Core.decisions st.engine)

let handle_bound_conflict st (lower : Lowerbound.Bound.t) omega =
  let stats = Core.stats st.engine in
  Telemetry.Counter.incr stats.bound_conflicts;
  let from_level = Core.decision_level st.engine in
  let path = Core.path_cost st.engine in
  let upper = st.upper in
  let analysis =
    Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Analyze (fun () ->
        Core.learn_false_clause st.engine omega)
  in
  let to_level =
    match analysis with Core.Root_conflict -> 0 | Core.Backjump { level; _ } -> level
  in
  Lowerbound.Track.note_bound_conflict st.track ~lb_driven:(lower.value > 0) ~lb:lower.value
    ~path ~upper ~from_level ~to_level;
  analysis

let pick_decision st (lower : Lowerbound.Bound.t) =
  let hinted =
    if st.options.lp_guided_branching then
      match lower.branch_hint with
      | Some v when Value.equal (Core.value_var st.engine v) Value.Unknown -> Some v
      | Some _ | None -> None
    else None
  in
  let var = match hinted with Some v -> Some v | None -> Core.next_branch_var st.engine in
  match var with
  | None -> None
  | Some v -> Some (Lit.make v (Core.phase_hint st.engine v))

(* Branching: the replay oracle, when set, overrides the heuristics.  An
   oracle literal that is already assigned means the recording diverged
   from this run (a faithful replay never produces one); surfaced as
   [None] so the caller gives up cleanly instead of looping. *)
let next_decision st (lower : Lowerbound.Bound.t) =
  match st.options.decision_oracle with
  | None -> pick_decision st lower
  | Some next -> (
    match next () with
    | Some l when Value.equal (Core.value_var st.engine (Lit.var l)) Value.Unknown -> Some l
    | Some _ | None -> None)

(* Record the conflict backjump the analysis decided on; returns the
   analysis unchanged.  Bound conflicts do not come through here — their
   retreat is recorded as a [Prune] event by {!Lowerbound.Track}. *)
let record_backjump st ~from_level analysis =
  (match analysis with
  | Core.Root_conflict -> Telemetry.Recorder.backjump st.recorder ~from_level ~to_level:0
  | Core.Backjump { level; _ } ->
    Telemetry.Recorder.backjump st.recorder ~from_level ~to_level:level);
  analysis

let rec search st =
  if out_of_budget st then Out_of_budget
  else
    match poll_import st with
    | Some (Some cut) -> resolve_cut st cut
    | Some None | None -> expand st

(* One loop iteration past the import poll: propagate, then close the
   search, record a leaf, prune or branch. *)
and expand st =
  match
    Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Propagate (fun () ->
        Core.propagate st.engine)
  with
  | Some ci ->
    if Core.root_unsat st.engine then Exhausted
    else begin
      let from_level = Core.decision_level st.engine in
      match
        record_backjump st ~from_level
          (Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Analyze (fun () ->
               Core.resolve_conflict st.engine (learn_from_conflict st ci)))
      with
      | Core.Root_conflict -> Exhausted
      | Core.Backjump _ ->
        maybe_reduce_db st;
        maybe_restart st;
        search st
      end
  | None ->
    if Core.root_unsat st.engine then Exhausted
    else if Core.all_assigned st.engine then handle_full_assignment st
    else begin
      Telemetry.Counter.incr st.nodes;
      Telemetry.Profile.Cell.bump_nodes st.tel.cell;
      (* Before any incumbent exists, [upper] is above the worst cost
         and no bound can prune, so the search dives for a first
         solution without paying for lower bounds.  After that the
         bound is evaluated at every node, except that the adaptive
         policy widens the interval (up to every 8th node) while
         evaluations keep failing to prune. *)
      let eligible = (not st.satisfaction) && st.best <> None in
      let lower, evaluated, lb_elapsed_us =
        if
          (not eligible)
          || (st.lb_skip > 1 && Telemetry.Counter.get st.nodes mod st.lb_skip <> 0)
        then begin
          if eligible && st.lb_skip > 1 then Telemetry.Counter.incr st.lb_skips;
          Lowerbound.Bound.none, false, 0
        end
        else begin
          match st.options.lb_method with
          | Options.Plain -> Lowerbound.Bound.none, false, 0
          | Options.Mis | Options.Lgr | Options.Lpr ->
            Telemetry.Counter.incr st.lb_calls;
            let t0 = Unix.gettimeofday () in
            let lower = lb_compute st in
            let elapsed_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
            let path = Core.path_cost st.engine in
            Lowerbound.Track.note_call st.track ~value:lower.value ~path ~upper:st.upper;
            (* A root-level evaluation (no decisions on the trail)
               bounds the whole problem; deeper ones only bound their
               subtree and must not reach the live cell. *)
            if Core.decision_level st.engine = 0 then
              Lowerbound.Track.publish_global_lb st.track ~lb:(path + lower.value + st.offset);
            lower, true, elapsed_us
        end
      in
      let prunes =
        (not st.satisfaction) && Core.path_cost st.engine + lower.value >= st.upper
      in
      if evaluated && st.options.lb_adaptive then begin
        if prunes then begin
          st.lb_noprune <- 0;
          st.lb_skip <- 1
        end
        else begin
          st.lb_noprune <- st.lb_noprune + 1;
          if st.lb_noprune >= 64 then begin
            st.lb_noprune <- 0;
            st.lb_skip <- min (st.lb_skip * 2) 8
          end
        end
      end;
      let pruning =
        if not prunes then None
        else begin
          let omega = bound_conflict_omega st lower in
          match st.options.proof with
          | None -> Some omega
          | Some proof ->
            (* only prune on bounds the log can justify: the b step is
               validated with exact integer arithmetic before being
               written, and a failing certificate downgrades the node
               to a plain decision (sound, merely slower) *)
            if Proof.log_bound_conflict proof ~upper:st.upper ~omega (Lazy.force lower.cert)
            then Some omega
            else begin
              Telemetry.Counter.incr
                (Telemetry.Registry.counter st.tel.registry "proof.uncertified_prunes");
              None
            end
        end
      in
      (* [pruned] reflects the *actual* prune — after any proof-mode
         downgrade — so a replay in the same mode sees the same flag *)
      if evaluated then
        Telemetry.Recorder.lb_eval st.recorder ~proc:st.proc ~value:lower.value
          ~path:(Core.path_cost st.engine) ~upper:st.upper ~elapsed_us:lb_elapsed_us
          ~pruned:(pruning <> None);
      match pruning with
      | Some omega -> begin
        match handle_bound_conflict st lower omega with
        | Core.Root_conflict -> Exhausted
        | Core.Backjump _ -> search st
      end
      | None -> begin
        match next_decision st lower with
        | None ->
          (* heuristic mode: cannot happen, all_assigned is false.
             Oracle mode: recording exhausted or diverged — stop. *)
          if st.options.decision_oracle = None then assert false else Out_of_budget
        | Some l ->
          Core.decide st.engine l;
          Telemetry.Recorder.decision st.recorder
            ~level:(Core.decision_level st.engine)
            ~var:(Lit.var l) ~value:(Lit.is_pos l);
          search st
      end
    end

and handle_full_assignment st =
  if st.satisfaction then begin
    let m = Core.model st.engine in
    st.best <- Some (m, 0);
    (match st.options.proof with
    | Some proof -> Proof.log_solution proof ~cost:0 m
    | None -> ());
    Exhausted
  end
  else begin
    let conflict =
      match offer st Found (Core.model st.engine) (Core.path_cost st.engine + st.offset) with
      | Some conflict -> conflict
      | None ->
        (* not adopted: a leaf no better than [upper] (the knapsack cut
           off); the cuts at [upper] still close it *)
        add_incumbent_cuts st
    in
    match conflict with
    | Some cut -> resolve_cut st cut
    | None ->
      (* cuts disabled (or not conflicting): retreat via a bound conflict
         justified by the path alone *)
      let from_level = Core.decision_level st.engine in
      let omega = List.map Lit.negate (Core.true_cost_lits st.engine) in
      (* the clause is RUP against the objective cut the checker holds at
         the incumbent just logged: all its literals false means every
         cost literal of the path is true, exceeding upper - 1 *)
      (match st.options.proof with
      | Some proof -> Proof.log_learned proof omega
      | None -> ());
      (match
         record_backjump st ~from_level
           (Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Analyze (fun () ->
                Core.learn_false_clause st.engine omega))
       with
      | Core.Root_conflict -> Exhausted
      | Core.Backjump _ -> search st)
  end

(* A conflicting incumbent cut, at a leaf or after an import: a
   trivially false one closes the search, any other is analyzed like a
   propagation conflict. *)
and resolve_cut st = function
  | `Root -> Exhausted
  | `Cid ci -> (
    let from_level = Core.decision_level st.engine in
    match
      record_backjump st ~from_level
        (Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Analyze (fun () ->
             Core.resolve_conflict st.engine ci))
    with
    | Core.Root_conflict -> Exhausted
    | Core.Backjump _ -> search st)

let package st verdict =
  (* every incumbent, found or imported, is a checked model at [upper],
     so a closed search proves the best one optimal *)
  let status =
    match verdict, st.best with
    | Exhausted, Some _ -> if st.satisfaction then Outcome.Satisfiable else Outcome.Optimal
    | Exhausted, None -> Outcome.Unsatisfiable
    | Out_of_budget, _ -> Outcome.Unknown
  in
  (match st.options.proof with
  | None -> ()
  | Some proof ->
    (* a closed search always ends on a root contradiction (or a
       trivially false objective cut, which latches the checker closed
       on its own); emit the empty-clause step, then the claim *)
    (match verdict, st.best with
    | Exhausted, Some _ when st.satisfaction -> ()
    | Exhausted, _ -> Proof.log_contradiction proof
    | Out_of_budget, _ -> ());
    let conclusion =
      match verdict, st.best with
      | Exhausted, Some (_, c) -> if st.satisfaction then Proof.Sat c else Proof.Optimal c
      | Exhausted, None -> Proof.Unsat
      | Out_of_budget, Some (_, c) -> Proof.Sat c
      | Out_of_budget, None -> Proof.No_claim
    in
    Proof.log_conclusion proof conclusion);
  let outcome =
    {
      Outcome.status;
      best = st.best;
      counters = Telemetry.Registry.counters st.tel.registry;
      elapsed = Unix.gettimeofday () -. st.start;
    }
  in
  let c = Outcome.counter outcome in
  Log.info (fun k ->
      k "%s: %d decisions, %d conflicts (%d bound), %d lb calls" (Outcome.status_name status)
        (c "engine.decisions") (c "engine.conflicts") (c "engine.bound_conflicts")
        (c "search.lb_calls"));
  Telemetry.Recorder.fin st.recorder ~status:(Outcome.status_name status)
    ~nodes:(c "search.nodes") ~decisions:(c "engine.decisions") ~conflicts:(c "engine.conflicts");
  outcome

let solve ?(options = Options.default) problem =
  let start = Unix.gettimeofday () in
  let input = problem in
  (* strengthened constraints and learned PB constraints have no
     cutting-planes derivation in the log, and the checker replays
     against the input problem's constraint indices: proof mode forces
     strengthening off and learns clauses only *)
  let options =
    if Option.is_some options.proof then
      { options with constraint_strengthening = false; learning = Options.Clauses }
    else options
  in
  let tel = match options.telemetry with Some t -> t | None -> Telemetry.Ctx.silent () in
  let count name n = Telemetry.Counter.add (Telemetry.Registry.counter tel.registry name) n in
  (* what the Section 6 probing passes find reads 0 when they are off *)
  let problem =
    Telemetry.Ctx.with_phase tel Telemetry.Phase.Preprocess (fun () ->
        let problem, (r : Strengthen.report) =
          if options.constraint_strengthening then Strengthen.apply problem
          else problem, { strengthened = 0; fixed_literals = 0 }
        in
        count "preprocess.strengthened" r.strengthened;
        count "preprocess.fixed" r.fixed_literals;
        problem)
  in
  (* Exact presolve before the engine is built.  In proof mode every
     applied tightening is certified by a cutting-planes derivation
     first (uncertifiable ones are skipped), and the alias map lets
     later steps reference tightened constraints by their derived
     form. *)
  let problem =
    if options.presolve && not (Problem.trivially_unsat problem) then
      Telemetry.Ctx.with_phase tel Telemetry.Phase.Preprocess (fun () ->
          let certify =
            Option.map
              (fun proof ->
                fun ~refs ~divisor ~expect ->
                 match Proof.log_derived proof ~refs ~divisor with
                 | Some (k, c) when Constr.equal c expect -> Some (-(k + 1))
                 | Some _ | None -> None)
              options.proof
          in
          let r = Preprocess.presolve ?certify problem in
          (match options.proof with
          | Some proof -> Proof.set_cid_map proof r.Preprocess.cid_map
          | None -> ());
          count "presolve.reductions" (r.Preprocess.tightened + r.Preprocess.removed);
          count "presolve.tightened" r.Preprocess.tightened;
          count "presolve.removed" r.Preprocess.removed;
          r.Preprocess.reduced)
    else problem
  in
  let engine = Core.create ~telemetry:tel problem in
  Option.iter (Core.set_interrupt engine) options.should_stop;
  (* the learned-clause hook serves both consumers: proof logging and the
     flight recorder ([level] is the level the clause was learned at,
     i.e. before the backjump it causes) *)
  if Option.is_some options.proof || Telemetry.Recorder.enabled tel.recorder then
    Core.set_on_learned engine (fun clause ->
        (match options.proof with
        | Some proof -> Proof.log_learned proof clause
        | None -> ());
        Telemetry.Recorder.learned tel.recorder ~size:(List.length clause)
          ~level:(Core.decision_level engine));
  let offset = match Problem.objective problem with None -> 0 | Some o -> o.offset in
  let proc = Options.name Options.lb_methods options.lb_method in
  let st =
    {
      engine;
      tel;
      recorder = tel.recorder;
      proc;
      options;
      offset;
      satisfaction = Problem.is_satisfaction problem;
      upper = Problem.max_cost_sum problem + 1;
      best = None;
      nodes = Telemetry.Registry.counter tel.registry "search.nodes";
      lb_calls = Telemetry.Registry.counter tel.registry "search.lb_calls";
      lb_skips = Telemetry.Registry.counter tel.registry "search.lb_skips";
      input;
      last_import = None;
      lpr_inc = None;
      mis = None;
      cuts = None;
      cut_sources = None;
      lb_skip = 1;
      lb_noprune = 0;
      track = Lowerbound.Track.create tel ~proc;
      max_learned = 4000;
      restart_budget = 100;
      conflicts_since_restart = 0;
      luby = Engine.Luby.create ~base:100;
      reduced = Hashtbl.create 64;
      start;
      deadline = Option.map (fun l -> start +. l) options.time_limit;
    }
  in
  if Core.root_unsat engine then package st Exhausted
  else begin
    if options.preprocess then begin
      let on_reduction =
        Option.map
          (fun proof (r : Preprocess.reduction) ->
            match r with
            | Preprocess.Fixed l -> Proof.log_learned proof [ l ]
            | Preprocess.Tightened _ | Preprocess.Removed _ -> ())
          options.proof
      in
      Telemetry.Ctx.with_phase tel Telemetry.Phase.Preprocess (fun () ->
          count "preprocess.fixed" (Preprocess.probe ?on_reduction engine))
    end;
    if Core.root_unsat engine then package st Exhausted
    else begin
      (* Build the cut pool once preprocessing settled the level-0 state:
         implications are mined by root probing, cover/clique cuts are
         separated lazily against each fractional LP optimum. *)
      (if (not st.satisfaction) && options.lb_method = Options.Lpr then
         match options.cuts with
         | Options.Cuts_off -> ()
         | Options.Cuts_root | Options.Cuts_tree ->
           let mode =
             match options.cuts with
             | Options.Cuts_root -> Cuts.Root
             | Options.Cuts_tree | Options.Cuts_off -> Cuts.Tree
           in
           let pool = Cuts.Pool.create ?proof:options.proof tel in
           Telemetry.Ctx.with_phase tel Telemetry.Phase.Preprocess (fun () ->
               Cuts.Pool.note_implications pool (Cuts.mine_implications engine));
           st.cuts <- Some { Cuts.pool; mode });
      let verdict = search st in
      package st verdict
    end
  end

let solve_under_assumptions ?options ~assumptions problem =
  let units =
    List.filter_map
      (fun l ->
        match Constr.clause [ l ] with
        | Constr.Constr c -> Some c
        | Constr.Trivial_true | Constr.Trivial_false -> None)
      assumptions
  in
  let problem = Problem.with_constraints problem units in
  match options with
  | None -> solve problem
  | Some options -> solve ~options problem
