open Pbo
module Core = Engine.Solver_core

(* Reduced cost of flipping an assigned variable [v] to 1, given the
   multipliers of the selected rows: alpha_v = gamma_v - sum_i mu_i d_iv,
   where gamma_v is the objective cost delta of setting v and d_iv the
   signed coefficient of x_v.  Flips with non-negative effect on
   path + L(mu) are dropped from the explanation (Section 4.3). *)
let alpha_filter engine selected =
  let contrib = Hashtbl.create 64 in
  let add_row (cid, mu) =
    let c = Core.constr_of engine cid in
    let note { Constr.coeff; lit } =
      let v = Lit.var lit in
      let d = if Lit.is_pos lit then float_of_int coeff else -.float_of_int coeff in
      let cur = try Hashtbl.find contrib v with Not_found -> 0. in
      Hashtbl.replace contrib v (cur +. (mu *. d))
    in
    Array.iter note (Constr.terms c)
  in
  List.iter add_row selected;
  let alpha v =
    let gamma =
      float_of_int (Core.cost_of_lit engine (Lit.pos v) - Core.cost_of_lit engine (Lit.neg v))
    in
    let c = try Hashtbl.find contrib v with Not_found -> 0. in
    gamma -. c
  in
  let keep l =
    let v = Lit.var l in
    let a = alpha v in
    match Core.value_var engine v with
    | Value.False -> a <= 1e-9  (* flipping to 1 would not help: drop *)
    | Value.True -> a >= -1e-9
    | Value.Unknown -> true
  in
  keep

let compute ?(iters = 50) engine ~cap =
  let tel = Core.telemetry engine in
  let res = Residual.extract engine in
  if Array.length res.rows = 0 then Bound.none
  else begin
    let rows =
      Array.map (fun (r : Residual.row) -> { Lagrangian.Subgradient.coeffs = r.coeffs; rhs = r.rhs }) res.rows
    in
    let problem = { Lagrangian.Subgradient.nvars = res.ncols; costs = res.obj; rows } in
    let target = float_of_int cap -. res.obj_offset in
    let sstats = Lagrangian.Subgradient.stats () in
    let result =
      Telemetry.Ctx.with_phase tel Telemetry.Phase.Subgradient (fun () ->
          Lagrangian.Subgradient.maximize ~iters ~stats:sstats ~target problem)
    in
    Instr.flush_subgradient tel.registry sstats;
    Telemetry.Gauge.set_max
      (Telemetry.Registry.gauge tel.registry "lgr.best_bound")
      (result.bound +. res.obj_offset);
    Telemetry.Gauge.set_max
      (Telemetry.Registry.gauge tel.registry "lgr.best_multiplier")
      (Array.fold_left max 0. result.multipliers);
    let value = Bound.trusted_value (result.bound +. res.obj_offset) in
    let selected =
      let out = ref [] in
      Array.iteri
        (fun i (r : Residual.row) ->
          if result.multipliers.(i) > 1e-9 then out := (r.cid, result.multipliers.(i)) :: !out)
        res.rows;
      !out
    in
    let omega_rows =
      lazy
        {
          Bound.cids = List.map fst selected;
          cuts = [];
          keep = Some (alpha_filter engine selected);
        }
    in
    { Bound.value; omega_rows; branch_hint = None; cert = lazy (Proof.Cert_bound selected) }
  end
