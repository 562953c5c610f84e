(** Exact rational arithmetic over machine integers.

    Used by catalogue examples whose isomorphisms must be exact (e.g. the
    Celsius/Fahrenheit bx, where floating point would break the inverse
    laws).  Values are kept normalised: positive denominator, numerator and
    denominator coprime. *)

type t

val make : int -> int -> t
(** [make num den] is the normalised fraction.  Raises [Division_by_zero]
    when [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Raises [Division_by_zero] on a zero divisor. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
