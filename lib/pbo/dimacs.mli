(** Reader for DIMACS CNF, imported as PB satisfaction instances (every
    clause becomes a degree-1 constraint).  Lets the solver run on plain
    SAT benchmarks.  Variable indices above {!Problem.max_variable_index},
    in the [p cnf] header or in a literal, are a {!Parse_error}. *)

exception Parse_error of string

val parse_string : string -> Problem.t
val parse_file : string -> Problem.t
