open Pbo
module Core = Engine.Solver_core

type report = {
  strengthened : int;
  fixed_literals : int;
}

(* Per literal index, the ids of the problem constraints containing it:
   [occ.(start.(i)) .. occ.(start.(i + 1)) - 1], flat so the structure
   costs two int arrays however many terms the problem has. *)
type occurrences = {
  start : int array;
  occ : int array;
}

let occurrences nvars constrs =
  let start = Array.make ((2 * nvars) + 1) 0 in
  let each f =
    Array.iteri
      (fun ci c -> Array.iter (fun t -> f ci (Lit.to_index t.Constr.lit)) (Constr.terms c))
      constrs
  in
  each (fun _ i -> start.(i + 1) <- start.(i + 1) + 1);
  for i = 1 to 2 * nvars do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let next = Array.sub start 0 (2 * nvars) in
  let occ = Array.make start.(2 * nvars) 0 in
  each (fun ci i ->
      occ.(next.(i)) <- ci;
      next.(i) <- next.(i) + 1);
  { start; occ }

let iter_occ o l f =
  let i = Lit.to_index l in
  for k = o.start.(i) to o.start.(i + 1) - 1 do
    f o.occ.(k)
  done

(* True weight minus degree under the engine's assignment. *)
let surplus engine c =
  Array.fold_left
    (fun acc { Constr.coeff; lit } ->
      match Core.value_lit engine lit with
      | Value.True -> acc + coeff
      | Value.False | Value.Unknown -> acc)
    0 (Constr.terms c)
  - Constr.degree c

(* For each problem constraint (store ids 0..m-1 coincide with the
   problem's constraint order), the best probe found: literal and
   surplus.  A probe can only raise the surplus of a constraint holding
   a literal it made true; every other constraint keeps its root surplus,
   which matters only when it is already >= 1.  So a probe visits the
   occurrences of its propagated literals plus the constraints
   over-satisfied at the root, skipping those over its own variable. *)
let probe_all problem =
  let engine = Core.create problem in
  let constrs = Problem.constraints problem in
  let m = Array.length constrs in
  let best = Array.make m None in
  let fixed = ref [] in
  let occ = occurrences (Problem.nvars problem) constrs in
  let seen = Array.make m (-1) in  (* per constraint: index of the last probe to visit it *)
  let over_satisfied () =
    let acc = ref [] in
    for ci = m - 1 downto 0 do
      if surplus engine constrs.(ci) >= 1 then acc := ci :: !acc
    done;
    !acc
  in
  (match Core.propagate engine with
  | Some _ -> ()
  | None ->
    let over_root = ref (over_satisfied ()) in
    let record_surpluses probe =
      let stamp = Lit.to_index probe and v = Lit.var probe in
      iter_occ occ (Lit.pos v) (fun ci -> seen.(ci) <- stamp);
      iter_occ occ (Lit.neg v) (fun ci -> seen.(ci) <- stamp);
      let visit ci =
        if seen.(ci) <> stamp then begin
          seen.(ci) <- stamp;
          let surplus = surplus engine constrs.(ci) in
          if surplus >= 1 then begin
            match best.(ci) with
            | Some (_, s) when s >= surplus -> ()
            | Some _ | None -> best.(ci) <- Some (probe, surplus)
          end
        end
      in
      Core.iter_trail_above engine 0 (fun l -> iter_occ occ l visit);
      List.iter visit !over_root
    in
    let nvars = Core.nvars engine in
    let v = ref 0 in
    while !v < nvars && not (Core.root_unsat engine) do
      let try_probe positive =
        if Value.equal (Core.value_var engine !v) Value.Unknown && not (Core.root_unsat engine)
        then begin
          let probe = Lit.make !v positive in
          Core.decide engine probe;
          (match Core.propagate engine with
          | Some _ ->
            (* failed literal: fix the negation at the root *)
            Core.backjump_to engine 0;
            fixed := Lit.negate probe :: !fixed;
            (match Constr.clause [ Lit.negate probe ] with
            | Constr.Constr c ->
              (match Core.add_constraint_dynamic engine c with
              | None ->
                (match Core.propagate engine with
                | None -> ()
                | Some ci -> ignore (Core.resolve_conflict engine ci))
              | Some ci -> ignore (Core.resolve_conflict engine ci))
            | Constr.Trivial_true | Constr.Trivial_false -> ());
            over_root := over_satisfied ()
          | None ->
            record_surpluses probe;
            Core.backjump_to engine 0)
        end
      in
      try_probe true;
      try_probe false;
      incr v
    done);
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
          incr strengthened;
          Problem.Builder.add_ge b
            ((surplus, Lit.negate probe) :: raw)
            (Constr.degree c + surplus))
      (Problem.constraints problem);
    List.iter (fun l -> Problem.Builder.add_clause b [ l ]) fixed;
    (match Problem.objective problem with
    | None -> ()
    | Some o ->
      Problem.Builder.set_objective b ~offset:o.offset
        (Array.to_list (Array.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) o.cost_terms)));
    Problem.Builder.build b, { strengthened = !strengthened; fixed_literals = List.length fixed }
  end
