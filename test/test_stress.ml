open Pbo
module Core = Engine.Solver_core

(* reduce_db invoked at arbitrary interior states must preserve slacks,
   reasons and eventual exactness. *)
let reduce_db_mid_search () =
  for seed = 0 to 30 do
    let problem = Gen.problem seed in
    let engine = Core.create problem in
    if not (Core.root_unsat engine) then begin
      let rng = Random.State.make [| seed; 0xdb |] in
      let rec walk fuel =
        if fuel > 0 then begin
          match Core.propagate engine with
          | Some ci ->
            (match Core.resolve_conflict engine ci with
            | Core.Root_conflict -> ()
            | Core.Backjump _ ->
              if Random.State.int rng 3 = 0 then Core.reduce_db engine;
              walk (fuel - 1))
          | None ->
            if Random.State.int rng 5 = 0 then Core.reduce_db engine;
            (match Core.next_branch_var engine with
            | None -> ()
            | Some v ->
              Core.decide engine (Lit.make v (Random.State.bool rng));
              walk (fuel - 1))
        end
      in
      walk 60;
      (* after the walk, slacks must still agree with recomputation *)
      let n = ref 0 in
      Core.iter_constraints engine (fun ~learned:_ _ -> incr n);
      for ci = 0 to !n - 1 do
        let c = Core.constr_of engine ci in
        if Core.slack_of engine ci <> Constr.slack_under (Core.value_lit engine) c then
          Alcotest.failf "seed %d: slack diverged after reduce_db" seed
      done
    end
  done

(* Random non-linear OPB instances: parse, solve, compare with direct
   evaluation of the products over the original variables. *)
let nonlinear_matches_brute () =
  for seed = 0 to 30 do
    let rng = Random.State.make [| seed; 0x217 |] in
    let nvars = 5 in
    let render_lit l =
      (if Lit.is_pos l then "x" else "~x") ^ string_of_int (Lit.var l + 1)
    in
    let random_product () =
      let len = 1 + Random.State.int rng 2 in
      List.init len (fun _ -> Lit.make (Random.State.int rng nvars) (Random.State.bool rng))
      |> List.sort_uniq Lit.compare
    in
    (* avoid products mentioning a variable twice with both polarities *)
    let ok_product p =
      let vars = List.map Lit.var p in
      List.length (List.sort_uniq compare vars) = List.length vars
    in
    let constraints =
      List.init (2 + Random.State.int rng 3) (fun _ ->
          let terms =
            List.init (1 + Random.State.int rng 3) (fun _ ->
                let rec gen () =
                  let p = random_product () in
                  if ok_product p then p else gen ()
                in
                1 + Random.State.int rng 3, gen ())
          in
          let total = List.fold_left (fun acc (c, _) -> acc + c) 0 terms in
          terms, Random.State.int rng (total + 1))
    in
    let buf = Buffer.create 256 in
    List.iter
      (fun (terms, rhs) ->
        List.iter
          (fun (c, p) ->
            Buffer.add_string buf (Printf.sprintf "+%d %s " c (String.concat " " (List.map render_lit p))))
          terms;
        Buffer.add_string buf (Printf.sprintf ">= %d ;\n" rhs))
      constraints;
    let text = Buffer.contents buf in
    let problem = Opb.parse_string text in
    (* brute force over the original 5 variables *)
    let feasible = ref false in
    for mask = 0 to 31 do
      let assign v = (mask lsr v) land 1 = 1 in
      let lit_true l = if Lit.is_pos l then assign (Lit.var l) else not (assign (Lit.var l)) in
      let holds (terms, rhs) =
        List.fold_left
          (fun acc (c, p) -> if List.for_all lit_true p then acc + c else acc)
          0 terms
        >= rhs
      in
      if List.for_all holds constraints then feasible := true
    done;
    let o = Bsolo.Solver.solve problem in
    match o.status, !feasible with
    | (Bsolo.Outcome.Satisfiable | Bsolo.Outcome.Optimal), true -> ()
    | Bsolo.Outcome.Unsatisfiable, false -> ()
    | s, f ->
      Alcotest.failf "seed %d: solver %s, brute %s\n%s" seed (Bsolo.Outcome.status_name s)
        (if f then "SAT" else "UNSAT") text
  done

(* Random heap operation sequences against a naive reference. *)
let heap_random_ops () =
  for seed = 0 to 20 do
    let rng = Random.State.make [| seed; 0x8ea9 |] in
    let n = 12 in
    let h = Engine.Idheap.create n in
    let prio = Array.make n 0. in
    let in_heap = Array.make n false in
    for _ = 1 to 300 do
      match Random.State.int rng 3 with
      | 0 ->
        let k = Random.State.int rng n in
        Engine.Idheap.insert h k;
        in_heap.(k) <- true
      | 1 ->
        let k = Random.State.int rng n in
        let p = Random.State.float rng 10. in
        prio.(k) <- p;
        Engine.Idheap.update h k p
      | _ ->
        if not (Engine.Idheap.is_empty h) then begin
          let top = Engine.Idheap.pop_max h in
          if not in_heap.(top) then Alcotest.failf "seed %d: popped absent key" seed;
          Array.iteri
            (fun k inside ->
              if inside && prio.(k) > prio.(top) +. 1e-12 then
                Alcotest.failf "seed %d: popped %d but %d has higher priority" seed top k)
            in_heap;
          in_heap.(top) <- false
        end
    done
  done

let suite =
  [
    Alcotest.test_case "reduce_db mid-search" `Slow reduce_db_mid_search;
    Alcotest.test_case "nonlinear opb vs brute" `Slow nonlinear_matches_brute;
    Alcotest.test_case "heap random ops" `Quick heap_random_ops;
  ]

(* The engine's own invariant checker must hold at every point of a
   randomized search walk, including right after conflicts, backjumps,
   restarts and DB reductions. *)
let invariants_along_random_walks () =
  for seed = 0 to 40 do
    let problem = if seed mod 2 = 0 then Gen.problem seed else Gen.covering seed in
    let engine = Core.create problem in
    if not (Core.root_unsat engine) then begin
      let rng = Random.State.make [| seed; 0x1137 |] in
      let assert_ok where =
        match Core.check_invariants engine with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d (%s): %s" seed where e
      in
      assert_ok "initial";
      let rec walk fuel =
        if fuel > 0 && not (Core.root_unsat engine) then begin
          match Core.propagate engine with
          | Some ci ->
            (match Core.resolve_conflict engine ci with
            | Core.Root_conflict -> assert_ok "root conflict"
            | Core.Backjump _ ->
              assert_ok "after analysis";
              if Random.State.int rng 4 = 0 then begin
                Core.restart engine;
                assert_ok "after restart"
              end;
              if Random.State.int rng 4 = 0 then begin
                Core.reduce_db engine;
                assert_ok "after reduce_db"
              end;
              walk (fuel - 1))
          | None ->
            assert_ok "at fixpoint";
            (match Core.next_branch_var engine with
            | None -> ()
            | Some v ->
              Core.decide engine (Lit.make v (Random.State.bool rng));
              walk (fuel - 1))
        end
      in
      walk 80
    end
  done

let suite =
  suite @ [ Alcotest.test_case "engine invariants on walks" `Slow invariants_along_random_walks ]
