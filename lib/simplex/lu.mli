(** Sparse LU factorization of a simplex basis, with product-form
    updates.

    The basis is an [m x m] matrix whose column [k] (basis position [k])
    is given sparse.  {!factor} eliminates it with Markowitz pivot order
    and threshold partial pivoting, so P B Q = L U with L a sequence of
    column etas and U kept by rows and by columns.  Each basis change
    then appends one eta (the entering column transformed by the current
    inverse) until the caller refactors. *)

exception Singular
(** The matrix has no usable pivot left: it is singular to working
    precision. *)

type t
(** A factorization and the workspace that builds it, reused by every
    later factorization of the same [t]. *)

val create : unit -> t
(** An empty factorization, of the 0 x 0 matrix. *)

val diagonal : t -> float array -> unit
(** Replace the factorization with that of diag([d]), built as it
    stands. *)

val factor : t -> int -> (int -> (int -> float -> unit) -> unit) -> unit
(** [factor lu m col] replaces the factorization with one of the
    [m x m] matrix whose column [k] has the entries [col k] passes to
    its callback as [(row, value)], no row repeated.
    @raise Singular when no pivot of magnitude above [1e-11] remains,
    leaving [lu] unusable until the next [factor] or [diagonal]. *)

val updates : t -> int
(** Etas appended since the factorization. *)

val update : t -> int -> float array -> unit
(** [update lu r alpha] records that position [r] now holds a column
    whose FTRAN result (by position, length [m]) is [alpha]. *)

val ftran : t -> float array -> float array -> unit
(** [ftran lu a x] solves B x = a: [a] is by row and is overwritten,
    [x] receives the result by basis position. *)

val btran : t -> float array -> float array -> unit
(** [btran lu c y] solves y B = c: [c] is by basis position and is
    overwritten, [y] receives the result by row. *)
