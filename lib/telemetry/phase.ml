(* Named phases of a solver run.  A closed enumeration rather than free
   strings so the timer can accumulate into a flat array without hashing
   on the hot path. *)

type t =
  | Preprocess
  | Propagate
  | Analyze
  | Reduce_db
  | Lower_bound
  | Simplex
  | Subgradient
  | Cut_generation
  | Separate

let count = 9

let index = function
  | Preprocess -> 0
  | Propagate -> 1
  | Analyze -> 2
  | Reduce_db -> 3
  | Lower_bound -> 4
  | Simplex -> 5
  | Subgradient -> 6
  | Cut_generation -> 7
  | Separate -> 8

let name = function
  | Preprocess -> "preprocess"
  | Propagate -> "propagate"
  | Analyze -> "analyze"
  | Reduce_db -> "reduce_db"
  | Lower_bound -> "lower_bound"
  | Simplex -> "simplex"
  | Subgradient -> "subgradient"
  | Cut_generation -> "cut_generation"
  | Separate -> "separate"

(* Phases coarse enough to emit one tracing span per entry.  The inner
   search phases (propagate/analyze) fire thousands of times per second:
   span-tracing them would swamp any trace file, so their time shows only
   in the exact phase table (Timer).  LP cut separation runs once or
   twice per LP bound, inside its lower_bound span, so it has no span
   of its own either. *)
let coarse = function
  | Preprocess | Reduce_db | Lower_bound | Simplex | Subgradient | Cut_generation -> true
  | Propagate | Analyze | Separate -> false

let all =
  [
    Preprocess;
    Propagate;
    Analyze;
    Reduce_db;
    Lower_bound;
    Simplex;
    Subgradient;
    Cut_generation;
    Separate;
  ]
