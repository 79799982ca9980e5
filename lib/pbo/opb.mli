(** Reader and writer for the linear OPB format used by the PB evaluation
    series and by the EDA benchmark sets the paper draws on.

    Supported syntax (linear fragment):

    {v
    * comment
    min: +4 x1 -2 x2 +7 x3 ;
    +1 x1 +2 ~x2 >= 1 ;
    +3 x1 -2 x3 = 2 ;
    v}

    Variables are written [xN] with [1 <= N <= 2^24]; [~xN] is negation.
    Variables are allocated densely up to the largest index, so a larger
    index is a {!Parse_error} rather than an attempt to allocate that many
    variables; the cap is far above any real instance.  The objective
    line is optional.

    Non-linear product terms in the PB07 style ([+2 x1 x2] meaning
    2*(x1 AND x2)) are accepted and linearized with cached Tseitin
    product variables, so the parsed problem may have more variables
    than the file mentions. *)

exception Parse_error of string
(** Raised with a human-readable message including the line number. *)

val parse_string : string -> Problem.t
val parse_file : string -> Problem.t

val print : Format.formatter -> Problem.t -> unit
val to_string : Problem.t -> string
val write_file : string -> Problem.t -> unit
