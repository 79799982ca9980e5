type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; size = 0; dummy }

let size v = v.size
let is_empty v = v.size = 0

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set";
  v.data.(i) <- x

let[@inline] unsafe_get v i = Array.unsafe_get v.data i
let[@inline] unsafe_set v i x = Array.unsafe_set v.data i x

let grow v =
  let data = Array.make (2 * Array.length v.data) v.dummy in
  Array.blit v.data 0 data 0 v.size;
  v.data <- data

let push v x =
  if v.size = Array.length v.data then grow v;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let pop v =
  if v.size = 0 then invalid_arg "Vec.pop";
  v.size <- v.size - 1;
  let x = v.data.(v.size) in
  v.data.(v.size) <- v.dummy;
  x

let last v =
  if v.size = 0 then invalid_arg "Vec.last";
  v.data.(v.size - 1)

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.size - n) v.dummy;
  v.size <- n

let clear v = shrink v 0

(* Heapsort on the live prefix: O(n log n) whatever the input, nothing
   allocated, and next to free on the one- and two-element vectors that
   dominate propagation. *)
let sort_int (v : int t) =
  let a = v.data in
  let sift i n =
    let x = Array.unsafe_get a i in
    let rec go i =
      let l = (2 * i) + 1 in
      if l >= n then Array.unsafe_set a i x
      else begin
        let c =
          if l + 1 < n && Array.unsafe_get a (l + 1) > Array.unsafe_get a l then l + 1 else l
        in
        let y = Array.unsafe_get a c in
        if y > x then begin
          Array.unsafe_set a i y;
          go c
        end
        else Array.unsafe_set a i x
      end
    in
    go i
  in
  let n = v.size in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for k = n - 1 downto 1 do
    let t = Array.unsafe_get a 0 in
    Array.unsafe_set a 0 (Array.unsafe_get a k);
    Array.unsafe_set a k t;
    sift 0 k
  done

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i v.data.(i)
  done

let fold f init v =
  let acc = ref init in
  for i = 0 to v.size - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.size && (p v.data.(i) || go (i + 1)) in
  go 0

let to_list v = List.init v.size (fun i -> v.data.(i))

let of_list ~dummy l =
  let v = create ~capacity:(max 1 (List.length l)) ~dummy () in
  List.iter (push v) l;
  v
