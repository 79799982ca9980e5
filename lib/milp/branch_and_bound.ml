open Pbo

type node = {
  bound : float;  (* parent LP bound: lower bound on any completion *)
  depth : int;
  fixings : (Lit.var * bool) list;
}

(* Minimal binary min-heap on node bounds (deeper first on ties, to dive
   toward incumbents). *)
module Heap = struct
  type t = {
    mutable data : node array;
    mutable size : int;
  }

  let dummy = { bound = 0.; depth = 0; fixings = [] }
  let create () = { data = Array.make 64 dummy; size = 0 }
  let is_empty h = h.size = 0

  let before a b = a.bound < b.bound || (a.bound = b.bound && a.depth > b.depth)

  let push h n =
    if h.size = Array.length h.data then begin
      let data = Array.make (2 * h.size) dummy in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- n;
    h.size <- h.size + 1;
    let rec up i =
      let p = (i - 1) / 2 in
      if i > 0 && before h.data.(i) h.data.(p) then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(p);
        h.data.(p) <- tmp;
        up p
      end
    in
    up (h.size - 1)

  let pop h =
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let best = ref i in
      if l < h.size && before h.data.(l) h.data.(!best) then best := l;
      if r < h.size && before h.data.(r) h.data.(!best) then best := r;
      if !best <> i then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(!best);
        h.data.(!best) <- tmp;
        down !best
      end
    in
    down 0;
    top
end

(* The LP relaxation over columns = variables in signed x-variable form;
   [obj_offset] includes the problem's own offset. *)
let relaxation_of problem =
  let nvars = Problem.nvars problem in
  let ncols = max nvars 1 in
  let objective, shift = Lowerbound.Residual.signed_objective ~ncols problem in
  let offset = match Problem.objective problem with None -> 0 | Some o -> o.offset in
  let lp =
    {
      Simplex.ncols = nvars;
      lower = Array.make ncols 0.;
      upper = Array.make ncols 1.;
      objective;
      rows = Array.map Cuts.lp_row (Problem.constraints problem);
    }
  in
  lp, float_of_int offset +. shift

(* Fixed columns sit exactly at their bound in the LP solution, so only
   free variables can be fractional. *)
let most_fractional x nvars =
  let best = ref None in
  for v = 0 to nvars - 1 do
    let frac = abs_float (x.(v) -. 0.5) in
    match !best with
    | Some (f, _) when f <= frac -> ()
    | Some _ | None -> if x.(v) > 1e-6 && x.(v) < 1. -. 1e-6 then best := Some (frac, v)
  done;
  !best

let first_unfixed fixings nvars =
  let rec go v = if v >= nvars then None else if List.mem_assoc v fixings then go (v + 1) else Some v in
  go 0

let solve ?(options = Bsolo.Options.default) problem =
  let start = Unix.gettimeofday () in
  let deadline = Option.map (fun l -> start +. l) options.time_limit in
  let tel =
    match options.telemetry with Some t -> t | None -> Telemetry.Ctx.silent ()
  in
  let nodes_c = Telemetry.Registry.counter tel.registry "search.nodes" in
  let lp_calls_c = Telemetry.Registry.counter tel.registry "search.lb_calls" in
  let decisions_c = Telemetry.Registry.counter tel.registry "engine.decisions" in
  let simplex_c = Lowerbound.Instr.simplex_counters tel.registry in
  let recorder = tel.Telemetry.Ctx.recorder in
  let lp, obj_offset = relaxation_of problem in
  let nvars = lp.Simplex.ncols in
  (* One LP for the whole tree: each node only changes column bounds, so
     the dual simplex re-solves it warm from the previous node's basis. *)
  let sx = Simplex.Incremental.create lp in
  let fixed = ref [] in
  let move_to fixings =
    List.iter (fun (v, _) -> Simplex.Incremental.unfix sx v) !fixed;
    List.iter (fun (v, b) -> Simplex.Incremental.fix sx v (if b then 1. else 0.)) fixings;
    fixed := fixings
  in
  let heap = Heap.create () in
  let best = ref None in
  let upper = ref max_int in
  let nodes = ref 0 in
  (* Every incumbent, an LP rounding or a portfolio import [(claimed
     cost, member)], is a model checked against the problem; only this
     run's own finds are broadcast.  An infeasible rounding is routine,
     a bad import is refused and counted. *)
  let try_incumbent ?import m =
    let ok = Model.nvars m = Problem.nvars problem && Model.satisfies problem m in
    let c = if ok then Model.cost problem m else max_int in
    match import with
    | Some (claimed, _) when claimed <> c -> Telemetry.Ctx.reject tel
    | _ when c >= !upper -> ()
    | _ -> (
      upper := c;
      best := Some (m, c);
      match import with
      | None ->
        Telemetry.Ctx.incumbent tel ~cost:c;
        Option.iter (fun broadcast -> broadcast m c) options.on_incumbent
      | Some (_, member) -> Telemetry.Ctx.import tel ~cost:c ~member)
  in
  (* The portfolio's shared cell (milp costs include the offset, like
     the cell's), polled once per node; it returns the same model until
     a peer improves on it, so each model is checked once. *)
  let last_import = ref None in
  let poll_import () =
    match Option.bind options.external_incumbent (fun hook -> hook ()) with
    | Some (cost, m, member)
      when cost < !upper
           && match !last_import with Some seen -> seen != m | None -> true ->
      last_import := Some m;
      try_incumbent ~import:(cost, member) m
    | Some _ | None -> ()
  in
  let out_of_budget () =
    (match options.should_stop with Some stop -> stop () | None -> false)
    || (match options.node_limit with Some l -> !nodes >= l | None -> false)
    || (match deadline with Some d -> Unix.gettimeofday () > d | None -> false)
  in
  (* Poll point inside the per-node LP: a stop request or an expired
     deadline truncates the solve (sound — the node is just re-expanded
     as pruned/budget), so one long LP cannot overrun the budget. *)
  let lp_should_stop () =
    (match options.should_stop with Some stop -> stop () | None -> false)
    || (match deadline with Some d -> Unix.gettimeofday () > d | None -> false)
  in
  Heap.push heap { bound = neg_infinity; depth = 0; fixings = [] };
  let verdict = ref None in
  if Problem.trivially_unsat problem then verdict := Some `Exhausted;
  while !verdict = None do
    if Heap.is_empty heap then verdict := Some `Exhausted
    else if out_of_budget () then verdict := Some `Budget
    else begin
      let node = Heap.pop heap in
      incr nodes;
      poll_import ();
      Telemetry.Counter.incr nodes_c;
      Telemetry.Profile.Cell.bump_nodes tel.Telemetry.Ctx.cell;
      (* Best-first: the popped node's bound is the global lower bound. *)
      if Float.is_finite node.bound then
        Telemetry.Profile.Cell.update_lb tel.Telemetry.Ctx.cell node.bound;
      Telemetry.Counter.incr decisions_c;
      if !upper < max_int && int_of_float (ceil (node.bound -. 1e-6)) >= !upper then ()
      else begin
        Telemetry.Counter.incr lp_calls_c;
        let sstats = Simplex.stats () in
        let t0 = Unix.gettimeofday () in
        move_to node.fixings;
        let lp_outcome =
          Telemetry.Ctx.with_phase tel Telemetry.Phase.Simplex (fun () ->
              Simplex.Incremental.reoptimize ~max_iters:2000 ~should_stop:lp_should_stop
                ~stats:sstats sx)
        in
        let lp_elapsed_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
        Lowerbound.Instr.flush_simplex simplex_c sstats;
        (* One Lb_eval event per LP relaxation solve: proc "lp", the
           rounded-up bound as the value (path cost is folded into the
           relaxation, so path = 0), pruned when the node closes. *)
        let record_lp ~value ~pruned =
          Telemetry.Recorder.lb_eval recorder ~proc:"lp" ~value ~path:0 ~upper:!upper
            ~elapsed_us:lp_elapsed_us ~pruned
        in
        match lp_outcome with
        | Simplex.Infeasible _ -> record_lp ~value:!upper ~pruned:true
        | Simplex.Optimal sol ->
          let bound_int = int_of_float (ceil (sol.value +. obj_offset -. 1e-6)) in
          let pruned = !upper < max_int && bound_int >= !upper in
          record_lp ~value:bound_int ~pruned;
          if pruned then ()
          else begin
            try_incumbent (Model.of_array (Array.init nvars (fun v -> sol.x.(v) >= 0.5)));
            match most_fractional sol.x nvars with
            | None ->
              (* LP solution is integral; the rounding above recorded it *)
              ()
            | Some (_, v) ->
              let child b =
                {
                  bound = sol.value +. obj_offset;
                  depth = node.depth + 1;
                  fixings = (v, b) :: node.fixings;
                }
              in
              Heap.push heap (child (sol.x.(v) >= 0.5));
              Heap.push heap (child (sol.x.(v) < 0.5))
          end
        | Simplex.Unbounded | Simplex.Iteration_limit _ ->
          record_lp ~value:0 ~pruned:false;
          (* cannot prune: branch blindly on the first unfixed variable *)
          (match first_unfixed node.fixings nvars with
          | None -> ()
          | Some v ->
            let child b = { bound = node.bound; depth = node.depth + 1; fixings = (v, b) :: node.fixings } in
            Heap.push heap (child true);
            Heap.push heap (child false))
      end
    end
  done;
  let satisfaction = Problem.is_satisfaction problem in
  let status =
    match !verdict, !best with
    | Some `Exhausted, Some _ ->
      if satisfaction then Bsolo.Outcome.Satisfiable else Bsolo.Outcome.Optimal
    | Some `Exhausted, None -> Bsolo.Outcome.Unsatisfiable
    | Some `Budget, _ | None, _ -> Bsolo.Outcome.Unknown
  in
  let outcome =
    {
      Bsolo.Outcome.status;
      best = !best;
      counters = Telemetry.Registry.counters tel.registry;
      elapsed = Unix.gettimeofday () -. start;
    }
  in
  let c = Bsolo.Outcome.counter outcome in
  Telemetry.Recorder.fin recorder
    ~status:(Bsolo.Outcome.status_name status)
    ~nodes:(c "search.nodes") ~decisions:(c "engine.decisions") ~conflicts:(c "engine.conflicts");
  outcome
