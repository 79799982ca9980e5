(* Vec, Idheap and Luby from the engine substrate. *)

let vec_basics () =
  let v = Engine.Vec.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Engine.Vec.is_empty v);
  for i = 0 to 99 do
    Engine.Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Engine.Vec.size v);
  Alcotest.(check int) "get" 42 (Engine.Vec.get v 42);
  Engine.Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Engine.Vec.get v 42);
  Alcotest.(check int) "last" 99 (Engine.Vec.last v);
  Alcotest.(check int) "pop" 99 (Engine.Vec.pop v);
  Engine.Vec.shrink v 10;
  Alcotest.(check int) "shrunk" 10 (Engine.Vec.size v);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Engine.Vec.to_list v)

let vec_bounds () =
  let v = Engine.Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Engine.Vec.get v 3));
  Alcotest.check_raises "shrink oob" (Invalid_argument "Vec.shrink") (fun () ->
      Engine.Vec.shrink v 4);
  let e = Engine.Vec.create ~dummy:0 () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      ignore (Engine.Vec.pop e))

let vec_fold_iter () =
  let v = Engine.Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold" 10 (Engine.Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Engine.Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Engine.Vec.exists (fun x -> x = 9) v);
  let seen = ref [] in
  Engine.Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 4 (List.length !seen)

(* [sort_int] sorts the live prefix only, whatever its length and the
   capacity behind it, and leaves exactly the same elements. *)
let qcheck_vec_sort_int =
  QCheck2.Test.make ~name:"vec sort_int agrees with List.sort" ~count:300
    QCheck2.Gen.(pair (list_size (int_bound 40) (int_range (-50) 50)) (int_bound 8))
    (fun (l, extra) ->
      let v = Engine.Vec.of_list ~dummy:0 (l @ List.init extra (fun i -> -1000 - i)) in
      Engine.Vec.shrink v (List.length l);
      Engine.Vec.sort_int v;
      Engine.Vec.to_list v = List.sort compare l)

let heap_pops_in_priority_order () =
  let h = Engine.Idheap.create 50 in
  let rng = Random.State.make [| 7 |] in
  let prios = Array.init 50 (fun _ -> Random.State.float rng 100.) in
  Array.iteri
    (fun k p ->
      Engine.Idheap.update h k p;
      Engine.Idheap.insert h k)
    prios;
  let rec drain acc = if Engine.Idheap.is_empty h then List.rev acc else drain (Engine.Idheap.pop_max h :: acc) in
  let order = drain [] in
  Alcotest.(check int) "all popped" 50 (List.length order);
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> prios.(a) >= prios.(b) && nonincreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "priority order" true (nonincreasing order)

let heap_update_reorders () =
  let h = Engine.Idheap.create 4 in
  List.iter (Engine.Idheap.insert h) [ 0; 1; 2; 3 ];
  Engine.Idheap.update h 2 10.;
  Alcotest.(check int) "max after update" 2 (Engine.Idheap.pop_max h);
  Engine.Idheap.update h 0 5.;
  Alcotest.(check int) "next" 0 (Engine.Idheap.pop_max h);
  Alcotest.(check bool) "membership" true (Engine.Idheap.mem h 1);
  Alcotest.(check bool) "popped not member" false (Engine.Idheap.mem h 2)

let heap_insert_idempotent () =
  let h = Engine.Idheap.create 3 in
  Engine.Idheap.insert h 1;
  Engine.Idheap.insert h 1;
  Alcotest.(check int) "size" 1 (Engine.Idheap.size h)

let heap_rescale_preserves_order () =
  let h = Engine.Idheap.create 3 in
  List.iter (Engine.Idheap.insert h) [ 0; 1; 2 ];
  Engine.Idheap.update h 1 8.;
  Engine.Idheap.update h 2 4.;
  Engine.Idheap.rescale h 1e-3;
  Alcotest.(check int) "max" 1 (Engine.Idheap.pop_max h);
  Alcotest.(check int) "mid" 2 (Engine.Idheap.pop_max h)

let luby_sequence () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  let got = List.init 15 (fun i -> Engine.Luby.term (i + 1)) in
  Alcotest.(check (list int)) "first 15 terms" expected got;
  let gen = Engine.Luby.create ~base:10 in
  Alcotest.(check int) "base scaling" 10 (Engine.Luby.next gen);
  Alcotest.(check int) "second" 10 (Engine.Luby.next gen);
  Alcotest.(check int) "third" 20 (Engine.Luby.next gen)

let suite =
  [
    Alcotest.test_case "vec basics" `Quick vec_basics;
    Alcotest.test_case "vec bounds" `Quick vec_bounds;
    Alcotest.test_case "vec fold/iter" `Quick vec_fold_iter;
    QCheck_alcotest.to_alcotest qcheck_vec_sort_int;
    Alcotest.test_case "heap priority order" `Quick heap_pops_in_priority_order;
    Alcotest.test_case "heap update reorders" `Quick heap_update_reorders;
    Alcotest.test_case "heap insert idempotent" `Quick heap_insert_idempotent;
    Alcotest.test_case "heap rescale" `Quick heap_rescale_preserves_order;
    Alcotest.test_case "luby sequence" `Quick luby_sequence;
  ]
