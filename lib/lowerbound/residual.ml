open Pbo
module Core = Engine.Solver_core

type row = {
  cid : Core.cid;
  coeffs : (int * float) array;
  rhs : float;
}

type t = {
  cols : Lit.var array;
  ncols : int;
  obj : float array;
  obj_offset : float;
  rows : row array;
}

let extract engine =
  let actives = Core.active_constraints engine in
  let col_tbl = Hashtbl.create 64 in
  let cols = ref [] in
  let ncols = ref 0 in
  let col_of v =
    match Hashtbl.find_opt col_tbl v with
    | Some c -> c
    | None ->
      let c = !ncols in
      Hashtbl.add col_tbl v c;
      cols := v :: !cols;
      incr ncols;
      c
  in
  (* [a * x = a * x] and [a * ~x = a - a * x]. *)
  let signed_term (a, l) =
    let c = col_of (Lit.var l) in
    if Lit.is_pos l then (c, float_of_int a), 0. else (c, -.float_of_int a), float_of_int a
  in
  let row_of (a : Core.active) =
    let rhs = ref (float_of_int a.aresidual) in
    let coeffs =
      List.map
        (fun term ->
          let signed, shift = signed_term term in
          rhs := !rhs -. shift;
          signed)
        a.aterms
    in
    { cid = a.acid; coeffs = Array.of_list coeffs; rhs = !rhs }
  in
  let rows = Array.of_list (List.map row_of actives) in
  let obj = Array.make (max !ncols 1) 0. in
  let obj_offset = ref 0. in
  let add_cost (c, l) =
    match Hashtbl.find_opt col_tbl (Lit.var l) with
    | None ->
      (* variable free of active constraints: its minimum contribution is
         0, achieved by the costless polarity *)
      ()
    | Some col ->
      if Lit.is_pos l then obj.(col) <- obj.(col) +. float_of_int c
      else begin
        (* c * ~x = c - c * x *)
        obj.(col) <- obj.(col) -. float_of_int c;
        obj_offset := !obj_offset +. float_of_int c
      end
  in
  List.iter add_cost (Core.unassigned_cost_terms engine);
  let cols = Array.of_list (List.rev !cols) in
  { cols; ncols = !ncols; obj; obj_offset = !obj_offset; rows }

(* --- fixed-structure relaxation for incremental re-solving --------------- *)

(* Objective over columns = variables in signed form: [c * ~x] is
   [c - c * x], so a negative literal subtracts [c] from its column and
   adds [c] to the returned constant. *)
let signed_objective ~ncols problem =
  let obj = Array.make ncols 0. in
  let shift = ref 0. in
  (match Problem.objective problem with
  | None -> ()
  | Some o ->
    Array.iter
      (fun (ct : Problem.cost_term) ->
        let v = Lit.var ct.lit in
        let c = float_of_int ct.cost in
        if Lit.is_pos ct.lit then obj.(v) <- obj.(v) +. c
        else begin
          obj.(v) <- obj.(v) -. c;
          shift := !shift +. c
        end)
      o.cost_terms);
  obj, !shift

module Full = struct
  type t = {
    cids : Core.cid array;
    lp : Simplex.problem;
    obj_offset : float;
    mirror : Value.t array;
  }

  type edits = {
    fixes : (int * float) list;
    unfixes : int;
    flips : int;
    total : int;
  }

  (* One LP over ALL problem variables (column j = variable j) and every
     non-learned lower-bound-eligible constraint, satisfied or not.  At a
     search node the assigned variables are fixed to their values; rows
     already satisfied by the assignment are then redundant in the LP, so
     the optimum equals path contribution + residual optimum — only the
     column bounds ever change between nodes, which is exactly the edit
     language of {!Simplex.Incremental}. *)
  let build engine =
    let nvars = max (Core.nvars engine) 1 in
    let constrs = Core.lb_constraints engine in
    if constrs = [] then None
    else begin
      let rows = Array.of_list (List.map (fun (_, c) -> Cuts.lp_row c) constrs) in
      let cids = Array.of_list (List.map fst constrs) in
      let obj, obj_offset = signed_objective ~ncols:nvars (Core.problem engine) in
      let lp =
        {
          Simplex.ncols = nvars;
          lower = Array.make nvars 0.;
          upper = Array.make nvars 1.;
          objective = obj;
          rows;
        }
      in
      let mirror = Array.make nvars Value.Unknown in
      for v = 0 to Core.nvars engine - 1 do
        mirror.(v) <- Core.value_var engine v
      done;
      (* absorb change notifications predating the snapshot *)
      Core.drain_changed_vars engine (fun _ -> ());
      Some { cids; lp; obj_offset; mirror }
    end

  (* Push the assignment delta since the last drain into the incremental
     LP as bound edits; the mirror deduplicates assign/unassign churn
     that cancelled out (e.g. backjump + same redecision). *)
  let sync full engine sx =
    let fixes = ref [] in
    let unfixes = ref 0 in
    let flips = ref 0 in
    let total = ref 0 in
    Core.drain_changed_vars engine (fun v ->
        let cur = Core.value_var engine v in
        let prev = full.mirror.(v) in
        if not (Value.equal cur prev) then begin
          full.mirror.(v) <- cur;
          incr total;
          match cur with
          | Value.Unknown ->
            incr unfixes;
            Simplex.Incremental.unfix sx v
          | Value.True ->
            if not (Value.equal prev Value.Unknown) then incr flips;
            fixes := (v, 1.) :: !fixes;
            Simplex.Incremental.fix sx v 1.
          | Value.False ->
            if not (Value.equal prev Value.Unknown) then incr flips;
            fixes := (v, 0.) :: !fixes;
            Simplex.Incremental.fix sx v 0.
        end);
    { fixes = !fixes; unfixes = !unfixes; flips = !flips; total = !total }
end
