(** Growable arrays (OCaml 5.1 lacks [Dynarray]). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused capacity; it is never observable. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val unsafe_get : 'a t -> int -> 'a
(** [get] without the bounds check, inlined; for hot loops whose index
    is already known to be in range. *)

val unsafe_set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Removes and returns the last element.  Raises [Invalid_argument] when
    empty. *)

val last : 'a t -> 'a
val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements. *)

val clear : 'a t -> unit
val sort_int : int t -> unit
(** Sorts the elements in ascending order, in place and without
    allocating (heapsort). *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
