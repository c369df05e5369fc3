(** Named getter/setter pairs over a configuration, the handles the
    sensitivity analysis perturbs.

    Lens granularity follows the paper: every technology parameter of
    Table I individually, the internal voltages and generator
    efficiencies, the constant current adder, the miscellaneous-logic
    aggregates (gate count, device widths, densities) and the
    interface loads. *)

type group = Voltage | Technology | Logic | Interface

val group_name : group -> string

type target
(** Which record of the configuration a lens writes; lets {!scale_all}
    build each record once. *)

type t = {
  name : string;
  group : group;
  range : float * float;  (** default certified scale-factor range *)
  get : Vdram_core.Config.t -> float;
  set : Vdram_core.Config.t -> float -> Vdram_core.Config.t;
  target : target;
}

val scale : t -> float -> Vdram_core.Config.t -> Vdram_core.Config.t
(** [scale lens f cfg] multiplies the lens value by [f]. *)

val scale_all :
  t array -> float array -> Vdram_core.Config.t -> Vdram_core.Config.t
(** [scale_all lenses factors cfg] scales [lenses.(i)] by
    [factors.(i)] for every [i]: bit for bit the left fold of {!scale}
    over the pairs in array order, but building one technology
    record, one voltage-domain record, one list of logic blocks and
    one configuration instead of a copy per lens.  Raises
    [Invalid_argument] unless the arrays have equal length. *)

val technology : t list
(** The 38 float technology parameters. *)

val voltages : t list
(** Vdd, Vint, Vbl, Vpp, the three generator efficiencies and the
    constant current adder.  Varying a voltage keeps its generator
    efficiency fixed, as in the paper. *)

val logic : t list
(** Aggregates over all miscellaneous logic blocks: number of gates,
    NFET width, PFET width, device (layout) density, wiring density,
    transistors per gate. *)

val interface : t list
(** DQ pre-driver and receiver load, data toggle rate, receiver
    bias. *)

val all : t list
(** Everything above, the Figure 10 parameter set. *)

val find : string -> t option
(** Lens by name. *)
