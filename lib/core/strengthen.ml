open Pbo
module Core = Engine.Solver_core

type report = {
  strengthened : int;
  fixed_literals : int;
}

(* Per literal index, the ids of the problem constraints containing it
   and the literal's coefficient there: [occ.(k)] and [coeff.(k)] for
   [k] in [start.(i) .. start.(i + 1) - 1], flat so the structure costs
   three int arrays however many terms the problem has. *)
type occurrences = {
  start : int array;
  occ : int array;
  coeff : int array;
}

let occurrences nvars constrs =
  let start = Array.make ((2 * nvars) + 1) 0 in
  let each f =
    Array.iteri
      (fun ci c ->
        Array.iter (fun t -> f ci t.Constr.coeff (Lit.to_index t.Constr.lit)) (Constr.terms c))
      constrs
  in
  each (fun _ _ i -> start.(i + 1) <- start.(i + 1) + 1);
  for i = 1 to 2 * nvars do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let next = Array.sub start 0 (2 * nvars) in
  let occ = Array.make start.(2 * nvars) 0 in
  let coeff = Array.make start.(2 * nvars) 0 in
  each (fun ci a i ->
      occ.(next.(i)) <- ci;
      coeff.(next.(i)) <- a;
      next.(i) <- next.(i) + 1);
  { start; occ; coeff }

let iter_occ o l f =
  let i = Lit.to_index l in
  for k = o.start.(i) to o.start.(i + 1) - 1 do
    f o.occ.(k) o.coeff.(k)
  done

(* For each problem constraint (store ids 0..m-1 coincide with the
   problem's constraint order), the best probe found: literal and
   surplus (true weight minus degree).  [root.(ci)] is constraint ci's
   surplus at level 0; it only grows, as failed literals assign more of
   level 0, and is advanced by the occurrences of each new root literal.
   A probe can only raise the surplus of a constraint holding a literal
   it made true, by that literal's coefficient: a walk over the
   occurrences of the probe's trail sums these into [gain] and lists the
   constraints touched, whose surplus is then [root + gain].  Every other
   constraint keeps its root surplus, which matters only when it is
   already >= 1, and only once: after a record [best] is at least the
   root surplus until that grows again.  So such a constraint waits in
   [pending] from the growth of its root surplus to its first probe
   over foreign variables.  Constraints over the probe's own variable
   are stamped and skipped.  No constraint is ever re-folded. *)
let probe_all problem =
  let engine = Core.create problem in
  let constrs = Problem.constraints problem in
  let m = Array.length constrs in
  let best = Array.make m None in
  let fixed = ref [] in
  let occ = occurrences (Problem.nvars problem) constrs in
  let own = Array.make m (-1) in  (* per constraint: index of the last probe over its variables *)
  let gain = Array.make m 0 in
  let record probe ci surplus =
    if surplus >= 1 then
      match best.(ci) with
      | Some (_, s) when s >= surplus -> ()
      | Some _ | None -> best.(ci) <- Some (probe, surplus)
  in
  let root = Array.map (fun c -> -Constr.degree c) constrs in
  let pending = ref [] in
  let waiting = Array.make m false in
  let root_assigned = ref 0 in
  (* Advance [root] by the level-0 literals assigned since the last call. *)
  let advance_root () =
    Core.iter_trail_from engine !root_assigned (fun l ->
        iter_occ occ l (fun ci a ->
            root.(ci) <- root.(ci) + a;
            if root.(ci) >= 1 && not waiting.(ci) then begin
              waiting.(ci) <- true;
              pending := ci :: !pending
            end));
    root_assigned := Core.num_assigned engine
  in
  let touched = ref [] in
  let record_surpluses probe =
    let stamp = Lit.to_index probe and v = Lit.var probe in
    let mark ci _ = own.(ci) <- stamp in
    iter_occ occ (Lit.pos v) mark;
    iter_occ occ (Lit.neg v) mark;
    Core.iter_trail_above engine 0 (fun l ->
        iter_occ occ l (fun ci a ->
            if own.(ci) <> stamp then begin
              if gain.(ci) = 0 then touched := ci :: !touched;
              gain.(ci) <- gain.(ci) + a
            end));
    (* a touched constraint is recorded below, at [root + gain] *)
    pending :=
      List.filter
        (fun ci ->
          let stay = own.(ci) = stamp in
          if not stay then begin
            if gain.(ci) = 0 then record probe ci root.(ci);
            waiting.(ci) <- false
          end;
          stay)
        !pending;
    List.iter
      (fun ci ->
        record probe ci (root.(ci) + gain.(ci));
        gain.(ci) <- 0)
      !touched;
    touched := []
  in
  (* [root] starts from the level-0 fixpoint, which [Core.probe] then
     finds already reached *)
  if Core.propagate engine = None then begin
    advance_root ();
    Core.probe engine ~stop:(fun () -> false) ~implied:record_surpluses
      ~failed:(fun probe ->
        fixed := Lit.negate probe :: !fixed;
        Preprocess.fix_negation engine probe;
        advance_root ())
  end;
  best, !fixed

let apply problem =
  if Problem.trivially_unsat problem || Problem.nvars problem = 0 then
    problem, { strengthened = 0; fixed_literals = 0 }
  else begin
    let best, fixed = probe_all problem in
    let strengthened = ref 0 in
    let b = Problem.Builder.create ~nvars:(Problem.nvars problem) () in
    Array.iteri
      (fun ci c ->
        let raw =
          Array.to_list (Array.map (fun t -> t.Constr.coeff, t.Constr.lit) (Constr.terms c))
        in
        match best.(ci) with
        | None -> Problem.Builder.add_norm b (Constr.Constr c)
        | Some (probe, surplus) ->
          (* any surplus in [1, surplus] is sound: cap the new term and
             degree at what [Constr.make_ge] accepts *)
          let s =
            min surplus (min Constr.coefficient_limit (Constr.degree_limit - Constr.degree c))
          in
          if s < 1 then Problem.Builder.add_norm b (Constr.Constr c)
          else begin
            incr strengthened;
            Problem.Builder.add_ge b ((s, Lit.negate probe) :: raw) (Constr.degree c + s)
          end)
      (Problem.constraints problem);
    List.iter (fun l -> Problem.Builder.add_clause b [ l ]) fixed;
    (match Problem.objective problem with
    | None -> ()
    | Some o ->
      Problem.Builder.set_objective b ~offset:o.offset
        (Array.to_list (Array.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) o.cost_terms)));
    Problem.Builder.build b, { strengthened = !strengthened; fixed_literals = List.length fixed }
  end
