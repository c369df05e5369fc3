(** Abstract configuration boxes for [vdram check]: a nominal
    configuration plus per-lens scale-factor intervals.

    A box concretises to every configuration obtained by applying
    each axis lens at some scale inside its interval, in axis order.
    The lens inventory touches pairwise disjoint fields, so any
    scalar the physics reads is moved by at most one axis and
    {!field} returns its exact float range; getters moved by several
    axes (not produced by the stock inventory) fall back to widened
    corner enumeration. *)

type axis = private { lens : Vdram_analysis.Lenses.t; scale : Vdram_units.Interval.t }

type t

val axis : Vdram_analysis.Lenses.t -> lo:float -> hi:float -> axis
(** An axis over a scale-factor interval.  Raises [Invalid_argument]
    unless [0 < lo <= hi] and both are finite. *)

val default_axis : Vdram_analysis.Lenses.t -> axis
(** {!axis} over the lens's declared default range. *)

val v : base:Vdram_core.Config.t -> axis list -> t
(** Raises [Invalid_argument] on duplicate lens axes. *)

val base : t -> Vdram_core.Config.t
val axes : t -> axis list
val dim : t -> int

val field : t -> (Vdram_core.Config.t -> float) -> Vdram_units.Interval.t
(** Range of a scalar getter over the box: exact for getters moved by
    at most one axis, a widened corner hull otherwise, and a point
    for getters no axis moves. *)

val fixed : t -> (Vdram_core.Config.t -> 'a) -> 'a
(** The nominal value of a structural input (one the interval evaluator
    reads as a point).  Raises [Invalid_argument] naming the axis if a
    corner of any axis changes it (compared with [==], then [=]). *)

val instantiate : t -> float list -> Vdram_core.Config.t
(** Concrete member of the box at the given per-axis scales (one per
    axis, each inside its interval — [Invalid_argument] otherwise). *)

val split : t -> (t * t) option
(** Bisect across the widest axis; [None] if every axis is a point. *)
