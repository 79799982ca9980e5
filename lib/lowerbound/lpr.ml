open Pbo
module Core = Engine.Solver_core

type last =
  | Last_none
  | Last_opt of {
      z : float;  (* LP objective, excluding obj_offset *)
      x : float array;
      tight : Core.cid list;
      ctight : Constr.t list;  (* tight cut rows (explanations recompute their false literals) *)
      duals : (int * float) list;
          (* non-zero row duals, for proof logging: engine cid (>= 0) or
             the proof reference of a cut row (< 0) *)
    }
  | Last_inf of {
      refs : (int * float) list;  (* Farkas witness with multipliers, same encoding *)
      cids : Core.cid list;  (* witness constraint rows, for the explanation *)
      cuts : Constr.t list;  (* witness cut rows *)
    }

type inc = {
  engine : Core.t;
  full : Residual.Full.t option;
  sx : Simplex.Incremental.t option;
  cuts : Cuts.config option;
  c_warm_hits : Telemetry.Counter.t;
  c_warm_iters : Telemetry.Counter.t;
  c_cold_falls : Telemetry.Counter.t;
  c_cold_drop : Telemetry.Counter.t;
  c_cache_hits : Telemetry.Counter.t;
  c_infeasible : Telemetry.Counter.t;
  c_iteration_limits : Telemetry.Counter.t;
  c_simplex : Instr.simplex_counters;
  mutable last : last;
  mutable drops_seen : int;  (* [drop_fallbacks] already flushed *)
}

let make ?cuts engine =
  let tel = Core.telemetry engine in
  let reg = tel.Telemetry.Ctx.registry in
  let full = Residual.Full.build engine in
  let sx =
    match full with
    | None -> None
    | Some f ->
      let sx = Simplex.Incremental.create f.lp in
      Array.iteri
        (fun v value ->
          match value with
          | Value.True -> Simplex.Incremental.fix sx v 1.
          | Value.False -> Simplex.Incremental.fix sx v 0.
          | Value.Unknown -> ())
        f.mirror;
      Some sx
  in
  {
    engine;
    full;
    sx;
    cuts;
    c_warm_hits = Telemetry.Registry.counter reg "lpr.warm_hits";
    c_warm_iters = Telemetry.Registry.counter reg "lpr.warm_iters";
    c_cold_falls = Telemetry.Registry.counter reg "lpr.cold_falls";
    c_cold_drop = Telemetry.Registry.counter reg "lpr.cold.drop_fallback";
    c_cache_hits = Telemetry.Registry.counter reg "lpr.cache_hits";
    c_infeasible = Telemetry.Registry.counter reg "lpr.infeasible";
    c_iteration_limits = Telemetry.Registry.counter reg "lpr.iteration_limits";
    c_simplex = Instr.simplex_counters reg;
    last = Last_none;
    drops_seen = 0;
  }

(* Why the LP went cold: the simplex counts drop fallbacks over its
   lifetime; add what is new since the last flush. *)
let flush_cold inc sx =
  let drops = Simplex.Incremental.drop_fallbacks sx in
  Telemetry.Counter.add inc.c_cold_drop (drops - inc.drops_seen);
  inc.drops_seen <- drops

(* Branch hint over the full LP: column index = variable. *)
let full_hint (full : Residual.Full.t) x =
  let best = ref None in
  Array.iteri
    (fun v xv ->
      if Value.equal full.mirror.(v) Value.Unknown && xv > 1e-6 && xv < 1. -. 1e-6 then begin
        let frac = abs_float (xv -. 0.5) in
        match !best with
        | Some (f, _) when f <= frac -> ()
        | Some _ | None -> best := Some (frac, v)
      end)
    x;
  match !best with
  | None -> None
  | Some (_, v) -> Some v

let tight_cids (full : Residual.Full.t) (sol : Simplex.solution) =
  let acc = ref [] in
  for i = Array.length full.cids - 1 downto 0 do
    if sol.row_activity.(i) <= full.lp.rows.(i).rhs +. 1e-6 then acc := full.cids.(i) :: !acc
  done;
  !acc

let dual_refs (full : Residual.Full.t) (sol : Simplex.solution) =
  let acc = ref [] in
  for i = Array.length full.cids - 1 downto 0 do
    if abs_float sol.duals.(i) > 1e-9 then acc := (full.cids.(i), sol.duals.(i)) :: !acc
  done;
  !acc

(* Bound-conflict explanations must also pin the currently-false
   literals of any cut row involved: cut constraints are globally valid,
   but the Lagrangian bound they support depends on which of their
   literals the path has falsified. *)
let bound_of_opt (full : Residual.Full.t) ~path ~z ~x ~tight ~ctight ~duals =
  {
    Bound.value = Bound.trusted_value (z +. full.obj_offset -. path);
    omega_rows = Lazy.from_val { Bound.cids = tight; cuts = ctight; keep = None };
    branch_hint = full_hint full x;
    cert = lazy (Proof.Cert_bound duals);
  }

(* The cached outcome of the previous solve is still the LP truth when no
   effective bound edit happened, and also when every edit fixes a column
   at exactly its previous LP value (the optimum stays feasible, hence
   optimal, and the dual certificate behind the tight set is untouched) —
   or when edits only tighten an already infeasible system.  A flip
   (column re-fixed to the opposite value with no release observed in
   between, e.g. True -> backjump -> False across two drains) is NOT a
   tightening: the new bound box is disjoint from the old one, so the
   cached infeasibility certificate does not transfer. *)
let cache_valid inc (edits : Residual.Full.edits) =
  if edits.total = 0 then inc.last <> Last_none
  else if edits.unfixes > 0 || edits.flips > 0 then false
  else
    match inc.last with
    | Last_none -> false
    | Last_inf _ -> true
    | Last_opt o ->
      List.for_all (fun (c, v) -> abs_float (o.x.(c) -. v) <= 1e-6) edits.fixes

(* Contribution of the active cut rows to one optimal solve: tight cut
   constraints (for the explanation) and nonzero-dual proof references
   (for the certificate; entries without a reference only exist outside
   proof mode, where certificates are never forced). *)
let cut_solve_refs (cfg : Cuts.config) (sol : Simplex.solution) =
  let ctight = ref [] in
  let cduals = ref [] in
  List.iter
    (fun (e : Cuts.Pool.entry) ->
      if e.row >= 0 && e.row < Array.length sol.duals then begin
        if sol.row_activity.(e.row) <= e.lp.Simplex.rhs +. 1e-6 then
          ctight := e.cut.constr :: !ctight;
        match e.cut.proof_ref with
        | Some r when abs_float sol.duals.(e.row) > 1e-9 ->
          cduals := (r, sol.duals.(e.row)) :: !cduals
        | Some _ | None -> ()
      end)
    (Cuts.Pool.active cfg.pool);
  (!ctight, !cduals)

(* Map an infeasibility witness over base and cut rows. *)
let split_witness inc (full : Residual.Full.t) witness =
  let nbase = Array.length full.cids in
  let base, cutw = List.partition (fun (i, _) -> i < nbase) witness in
  let refs = List.map (fun (i, m) -> (full.cids.(i), m)) base in
  let cut_refs, cut_constrs =
    match inc.cuts with
    | None -> [], []
    | Some cfg ->
      let refs = ref [] and constrs = ref [] in
      List.iter
        (fun (i, m) ->
          List.iter
            (fun (e : Cuts.Pool.entry) ->
              if e.row = i then begin
                constrs := e.cut.constr :: !constrs;
                match e.cut.proof_ref with
                | Some r -> refs := (r, m) :: !refs
                | None -> ()
              end)
            (Cuts.Pool.active cfg.pool))
        cutw;
      !refs, !constrs
  in
  let cids =
    match refs, cut_constrs with
    | [], [] -> Array.to_list full.cids
    | _ -> List.map fst refs
  in
  (refs @ cut_refs, cids, cut_constrs)

let inf_bound ~cap ~refs ~cids ~cuts =
  {
    Bound.value = cap;
    omega_rows = Lazy.from_val { Bound.cids; cuts; keep = None };
    branch_hint = None;
    cert = lazy (Proof.Cert_farkas refs);
  }

let compute_inc inc ~cap =
  let tel = Core.telemetry inc.engine in
  match inc.full, inc.sx with
  | None, _ | _, None -> Bound.none
  | Some full, Some sx ->
    let edits = Residual.Full.sync full inc.engine sx in
    let path = float_of_int (Core.path_cost inc.engine) in
    if cache_valid inc edits then begin
      Telemetry.Counter.incr inc.c_cache_hits;
      match inc.last with
      | Last_opt o ->
        bound_of_opt full ~path ~z:o.z ~x:o.x ~tight:o.tight ~ctight:o.ctight
          ~duals:o.duals
      | Last_inf { refs; cids; cuts } -> inf_bound ~cap ~refs ~cids ~cuts
      | Last_none -> assert false
    end
    else begin
      let sstats = Simplex.stats () in
      (* every [reoptimize], separation re-solves included, counts as
         one warm hit or one cold fall *)
      let solve () =
        let outcome =
          Telemetry.Ctx.with_phase tel Telemetry.Phase.Simplex (fun () ->
              Simplex.Incremental.reoptimize
                ~should_stop:(fun () -> Core.interrupt_requested inc.engine)
                ~stats:sstats sx)
        in
        let info = Simplex.Incremental.last_info sx in
        if info.warm then begin
          Telemetry.Counter.incr inc.c_warm_hits;
          Telemetry.Counter.add inc.c_warm_iters info.iters
        end
        else Telemetry.Counter.incr inc.c_cold_falls;
        outcome
      in
      let separation_allowed =
        match inc.cuts with
        | None -> false
        | Some cfg -> (
          match cfg.mode with
          | Cuts.Off -> false
          | Cuts.Tree -> true
          | Cuts.Root -> Core.decision_level inc.engine = 0)
      in
      (* Separation loop: solve, separate violated cuts against the
         fractional optimum, splice them in as extra rows, re-solve warm
         (dual feasibility survives a row addition, so the dual simplex
         repairs the primal violation cheaply); bounded rounds.  Aging
         and eviction run once, on the final optimal solve. *)
      let rec go rounds outcome =
        match outcome with
        | Simplex.Optimal sol
          when separation_allowed
               && inc.cuts <> None && rounds < 2 (* separation rounds per call *) -> (
          let cfg = Option.get inc.cuts in
          let fresh =
            Telemetry.Ctx.with_phase tel Telemetry.Phase.Separate (fun () ->
                Cuts.Pool.separate cfg.pool inc.engine ~x:sol.Simplex.x)
          in
          match fresh with
          | [] -> finish (Simplex.Optimal sol)
          | entries ->
            List.iter
              (fun (e : Cuts.Pool.entry) ->
                e.row <- Simplex.Incremental.add_row sx e.lp)
              entries;
            go (rounds + 1) (solve ()))
        | outcome -> finish outcome
      and finish outcome =
        Instr.flush_simplex inc.c_simplex sstats;
        match outcome with
        | Simplex.Optimal sol ->
          let tight = tight_cids full sol in
          let duals = dual_refs full sol in
          let ctight, cduals =
            match inc.cuts with
            | None -> [], []
            | Some cfg ->
              let ctight, cduals = cut_solve_refs cfg sol in
              Cuts.Pool.observe cfg.pool ~duals:sol.duals;
              (* evict stale zero-dual rows, highest index first *)
              List.iter
                (fun (e : Cuts.Pool.entry) ->
                  if abs_float sol.duals.(e.row) <= 1e-9 then begin
                    Simplex.Incremental.drop_row sx e.row;
                    Cuts.Pool.note_evicted cfg.pool e
                  end)
                (Cuts.Pool.evictable cfg.pool);
              ctight, cduals
          in
          let duals = duals @ cduals in
          inc.last <- Last_opt { z = sol.value; x = sol.x; tight; ctight; duals };
          bound_of_opt full ~path ~z:sol.value ~x:sol.x ~tight ~ctight ~duals
        | Simplex.Infeasible witness ->
          Telemetry.Counter.incr inc.c_infeasible;
          let refs, cids, cuts = split_witness inc full witness in
          inc.last <- Last_inf { refs; cids; cuts };
          inf_bound ~cap ~refs ~cids ~cuts
        | Simplex.Iteration_limit zo ->
          Telemetry.Counter.incr inc.c_iteration_limits;
          inc.last <- Last_none;
          let value =
            match zo with
            | Some z -> Bound.trusted_value (z +. full.obj_offset -. path)
            | None -> 0
          in
          if value > 0 then
            {
              Bound.value = value;
              omega_rows =
                lazy { Bound.cids = Array.to_list full.cids; cuts = []; keep = None };
              branch_hint = None;
              cert = lazy Proof.Cert_path;
            }
          else Bound.none
        | Simplex.Unbounded ->
          inc.last <- Last_none;
          Bound.none
      in
      let bound = go 0 (solve ()) in
      flush_cold inc sx;
      bound
    end
