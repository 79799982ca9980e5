(* Order statistics over a handful of repeated measurements. *)

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  n : int;
}

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

let median values =
  let a = sorted values in
  match Array.length a with
  | 0 -> invalid_arg "Stats.median: no values"
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles(values, n=4)]
   (its default "exclusive" method), so that quartiles printed here match
   the ones an external script computes from the same values. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no values";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)
  end

let summarize values =
  let q1, _, q3 = quartiles values in
  { median = median values; q1; q3; n = List.length values }

(* Interquartile distance as a share of the median; 0 for a zero median. *)
let spread s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median
