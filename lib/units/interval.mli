(** Outward-rounded interval arithmetic, the abstract numeric domain
    of [vdram check].

    An interval stands for every real between its endpoints and every
    IEEE double a concrete evaluation can produce from operands drawn
    from the operand intervals: each computed endpoint is widened
    outward by two ulps, which absorbs both the endpoint arithmetic's
    own rounding and the half-ulp of the mirrored concrete operation.
    Operations whose endpoint arithmetic degenerates (NaN, division by
    an interval containing zero) widen to [-inf, +inf] ("top"), so the
    domain is total and never unsound. *)

type t = private { lo : float; hi : float }

val top : t
val is_top : t -> bool

val v : float -> float -> t
(** [v lo hi] is the exact interval (no outward rounding): the caller
    asserts both endpoints are already contained.  NaN endpoints widen
    to the corresponding infinity; inverted endpoints are swapped. *)

val point : float -> t
(** Singleton interval; [point nan] is {!top}. *)

val zero : t
val one : t
val of_int : int -> t

val is_point : t -> bool
val contains : t -> float -> bool
val subset : t -> t -> bool
val hull : t -> t -> t
val width : t -> float
val mid : t -> float
val split : t -> t * t
val is_finite : t -> bool

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Top as soon as the divisor interval contains zero. *)

val scale : float -> t -> t
val sq : t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Local-open operators: [Interval.O.(a + b * c)]. *)
module O : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
end
