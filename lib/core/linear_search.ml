open Pbo
module Core = Engine.Solver_core

let pbs_like = { Options.default with lb_method = Options.Plain; restarts = true }

type verdict =
  | Exhausted
  | Out_of_budget

type state = {
  engine : Core.t;
  tel : Telemetry.Ctx.t;
  recorder : Telemetry.Recorder.t;  (* flight recorder (tel.recorder, hoisted) *)
  options : Options.t;
  pb_learning : bool;
  cutting_planes : bool;
  offset : int;
  satisfaction : bool;
  mutable upper : int;
  mutable best : (Model.t * int) option;
  mutable imported : bool;
  mutable max_learned : int;
  mutable restart_budget : int;
  mutable conflicts_since_restart : int;
  luby : Engine.Luby.t;
  reduced : (Core.cid, unit) Hashtbl.t;
  start : float;
  deadline : float option;
}

let out_of_budget st =
  let stats = Core.stats st.engine in
  Core.interrupted st.engine
  || (match st.options.conflict_limit with
     | Some l -> Telemetry.Counter.get stats.conflicts >= l
     | None -> false)
  || (match st.deadline with Some d -> Unix.gettimeofday () > d | None -> false)

(* Galena-flavoured learning.  The primary mechanism is cutting-planes
   conflict resolution: derive a PB resolvent of the conflict and store it
   (stronger propagation than the 1UIP clause alone).  The cardinality
   reduction of genuine PB conflict constraints is kept as a cheap
   complement, memoized per constraint. *)
let learn_cardinality_reduction st ci =
  if st.pb_learning && not (Hashtbl.mem st.reduced ci) then begin
    Hashtbl.replace st.reduced ci ();
    let c = Core.constr_of st.engine ci in
    if not (Constr.is_cardinality c) then begin
      let lits = Constr.fold_lits List.cons c [] in
      match Constr.cardinality lits (Constr.min_true_count c) with
      | Constr.Constr card -> ignore (Core.add_constraint_dynamic st.engine card)
      | Constr.Trivial_true | Constr.Trivial_false -> ()
    end
  end

(* Returns the conflict to analyze: the PB resolvent when one was learned
   (it is violated by construction, hence at least as strong a starting
   point as the original conflict). *)
let learn_pb_resolvent st ci =
  if not st.cutting_planes then ci
  else begin
    match Core.derive_pb_resolvent st.engine ci with
    | None -> ci
    | Some resolvent ->
      (match Core.add_constraint_dynamic st.engine resolvent with
      | Some ci' -> ci'
      | None ->
        (* cannot happen: the resolvent is violated under the current
           assignment *)
        ci)
  end

let maybe_reduce_db st =
  if st.options.reduce_db && Core.num_learned st.engine > st.max_learned then begin
    Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Reduce_db (fun () ->
        Core.reduce_db st.engine);
    Hashtbl.reset st.reduced;
    st.max_learned <- st.max_learned + (st.max_learned / 2)
  end

let maybe_restart st =
  st.conflicts_since_restart <- st.conflicts_since_restart + 1;
  if st.options.restarts && st.conflicts_since_restart >= st.restart_budget then begin
    st.conflicts_since_restart <- 0;
    st.restart_budget <- Engine.Luby.next st.luby;
    Core.restart st.engine;
    Telemetry.Recorder.restart st.recorder
  end

let record_model st =
  let cost = Core.path_cost st.engine in
  let improves =
    match st.best with None -> true | Some (_, c) -> cost + st.offset < c
  in
  if improves then begin
    (* An imported external bound may already sit below this model's cost;
       never loosen [upper], it backs the blocking cuts. *)
    if cost < st.upper then st.upper <- cost;
    let m = Core.model st.engine in
    st.best <- Some (m, cost + st.offset);
    Telemetry.Ctx.incumbent st.tel ~cost:(cost + st.offset);
    match st.options.on_incumbent with
    | Some broadcast -> broadcast m (cost + st.offset)
    | None -> ()
  end

(* Shared-incumbent import (parallel portfolio): adopt an externally found
   upper bound and immediately block it with the eq. (10) cut, exactly as
   if the model had been found locally — linear search prunes through the
   constraint store, not through bound conflicts. *)
let poll_external st =
  match st.options.external_incumbent with
  | None -> `Continue
  | Some hook ->
    (match hook () with
    | Some (ext, member) when ext - st.offset < st.upper ->
      st.upper <- ext - st.offset;
      st.imported <- true;
      Telemetry.Ctx.import st.tel ~cost:ext ~member;
      (match Knapsack.upper_cut (Core.problem st.engine) ~upper:st.upper with
      | Constr.Trivial_false -> `Stop
      | Constr.Trivial_true -> `Continue
      | Constr.Constr c ->
        (match Core.add_constraint_dynamic st.engine c with
        | None -> `Continue
        | Some ci ->
          (match Core.resolve_conflict st.engine ci with
          | Core.Root_conflict -> `Stop
          | Core.Backjump _ -> `Continue)))
    | Some _ | None -> `Continue)

(* Require the next solution to improve on the incumbent: the constraint
   of eq. (10), which is also PBS's blocking mechanism. *)
let block_incumbent st =
  if st.satisfaction then `Stop
  else begin
    match Knapsack.upper_cut (Core.problem st.engine) ~upper:st.upper with
    | Constr.Trivial_false -> `Stop
    | Constr.Trivial_true ->
      (* empty objective: any model is optimal *)
      `Stop
    | Constr.Constr c ->
      (match Core.add_constraint_dynamic st.engine c with
      | None -> `Continue
      | Some ci ->
        (match Core.resolve_conflict st.engine ci with
        | Core.Root_conflict -> `Stop
        | Core.Backjump _ -> `Continue))
  end

let rec search st =
  if out_of_budget st then Out_of_budget
  else if poll_external st = `Stop then Exhausted
  else begin
    match
      Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Propagate (fun () ->
          Core.propagate st.engine)
    with
    | Some ci ->
      if Core.root_unsat st.engine then Exhausted
      else begin
        let from_level = Core.decision_level st.engine in
        let analysis =
          Telemetry.Ctx.with_phase st.tel Telemetry.Phase.Analyze (fun () ->
              learn_cardinality_reduction st ci;
              let ci = learn_pb_resolvent st ci in
              Core.resolve_conflict st.engine ci)
        in
        (match analysis with
        | Core.Root_conflict ->
          Telemetry.Recorder.backjump st.recorder ~from_level ~to_level:0
        | Core.Backjump { level; _ } ->
          Telemetry.Recorder.backjump st.recorder ~from_level ~to_level:level);
        match analysis with
        | Core.Root_conflict -> Exhausted
        | Core.Backjump _ ->
          maybe_reduce_db st;
          maybe_restart st;
          Telemetry.Progress.tick st.tel.progress
            ~count:(Telemetry.Counter.get (Core.stats st.engine).Core.conflicts)
            ~render:(fun () ->
              let stats = Core.stats st.engine in
              Printf.sprintf "conflicts=%d decisions=%d learned=%d ub=%s"
                (Telemetry.Counter.get stats.conflicts)
                (Telemetry.Counter.get stats.decisions)
                (Core.num_learned st.engine)
                (match st.best with None -> "-" | Some (_, c) -> string_of_int c));
          search st
      end
    | None ->
      if Core.root_unsat st.engine then Exhausted
      else if Core.all_assigned st.engine then begin
        record_model st;
        match block_incumbent st with
        | `Stop -> Exhausted
        | `Continue -> search st
      end
      else begin
        match Core.next_branch_var st.engine with
        | None -> assert false
        | Some v ->
          (* A node is a decision here; keep the live cell in step with
             the [search.nodes] alias published after the run. *)
          Telemetry.Profile.Cell.bump_nodes st.tel.cell;
          let l = Lit.make v (Core.phase_hint st.engine v) in
          Core.decide st.engine l;
          Telemetry.Recorder.decision st.recorder
            ~level:(Core.decision_level st.engine)
            ~var:(Lit.var l) ~value:(Lit.is_pos l);
          search st
      end
  end

let solve ?(options = pbs_like) ?(pb_learning = false) ?(cutting_planes = false) problem =
  let start = Unix.gettimeofday () in
  let tel = match options.telemetry with Some t -> t | None -> Telemetry.Ctx.silent () in
  let engine = Core.create ~telemetry:tel ~bcp:options.bcp problem in
  Option.iter (Core.set_interrupt engine) options.should_stop;
  (* the same learned-clause hook the bsolo driver installs: [level] is
     the level the clause was learned at, before its backjump *)
  if Telemetry.Recorder.enabled tel.recorder then
    Core.set_on_learned engine (fun clause ->
        Telemetry.Recorder.learned tel.recorder ~size:(List.length clause)
          ~level:(Core.decision_level engine));
  let offset = match Problem.objective problem with None -> 0 | Some o -> o.offset in
  let st =
    {
      engine;
      tel;
      recorder = tel.recorder;
      options;
      pb_learning;
      cutting_planes;
      offset;
      satisfaction = Problem.is_satisfaction problem;
      upper = Problem.max_cost_sum problem + 1;
      best = None;
      imported = false;
      max_learned = 4000;
      restart_budget = 100;
      conflicts_since_restart = 0;
      luby = Engine.Luby.create ~base:100;
      reduced = Hashtbl.create 64;
      start;
      deadline = Option.map (fun l -> start +. l) options.time_limit;
    }
  in
  let verdict =
    if Core.root_unsat engine then Exhausted
    else begin
      if options.preprocess then
        Telemetry.Ctx.with_phase tel Telemetry.Phase.Preprocess (fun () ->
            ignore (Preprocess.probe engine));
      if Core.root_unsat engine then Exhausted else search st
    end
  in
  (* Linear search has no explicit node count or LB procedure: a node is a
     decision.  Publish the aliases so the registry snapshot is uniform. *)
  let stats = Core.stats engine in
  Telemetry.Counter.set
    (Telemetry.Registry.counter tel.registry "search.nodes")
    (Telemetry.Counter.get stats.decisions);
  let counters = Outcome.counters_of_registry tel.registry in
  let status, proved_lb =
    match verdict, st.best with
    | Exhausted, Some _ when st.satisfaction -> Outcome.Satisfiable, None
    | Exhausted, None when st.satisfaction -> Outcome.Unsatisfiable, None
    | Exhausted, Some (_, c) ->
      if c - st.offset <= st.upper then Outcome.Optimal, Some c
      else Outcome.Unknown, Some (st.upper + st.offset)
    | Exhausted, None ->
      if st.imported then Outcome.Unknown, Some (st.upper + st.offset)
      else Outcome.Unsatisfiable, None
    | Out_of_budget, _ -> Outcome.Unknown, None
  in
  Telemetry.Recorder.fin st.recorder ~status:(Outcome.status_name status) ~nodes:counters.nodes
    ~decisions:counters.decisions ~conflicts:counters.conflicts;
  { Outcome.status; best = st.best; proved_lb; counters; elapsed = Unix.gettimeofday () -. start }
