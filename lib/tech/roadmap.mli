(** The commodity-DRAM roadmap used for trend extrapolation.

    For each technology node this module provides the mainstream
    interface at the node's peak-usage time (Figure 12), the voltage
    set (Figure 11), row timings, and a die density chosen so that the
    die area lands in the manufacturable 40–60 mm^2 window
    (Section IV.C). *)

type t = {
  node : Node.t;
  standard : Node.standard;
  density_bits : float;     (** bits per die, a power of two *)
  io_width : int;           (** DQ pins; the paper assumes x16 *)
  datarate : float;         (** bit/s per DQ pin *)
  prefetch : int;           (** serialization ratio (core:interface) *)
  burst_length : int;
  banks : int;
  (* Voltage set (Figure 11). *)
  vdd : float;
  vint : float;
  vbl : float;
  vpp : float;
  (* Row timings (Figure 12). *)
  trc : float;              (** row cycle time, s *)
  trcd : float;             (** row-to-column delay, s *)
  trp : float;              (** precharge time, s *)
  (* Array organisation. *)
  bits_per_bitline : int;
  bits_per_lwl : int;       (** cells per local wordline *)
  page_bits : int;          (** bitlines sensed per activate *)
  cell_factor : float;      (** cell size in F^2: 8, 6 or 4 *)
  array_efficiency : float; (** assumed cell-to-die area ratio *)
}

val generation : Node.t -> t
(** The roadmap entry at a node. *)

val all : t list
(** All fourteen generations, oldest first. *)

val core_frequency : t -> float
(** Internal core frequency: [datarate / prefetch]; roughly constant
    at ~200 MHz across the roadmap (the paper's low-cost-core
    assumption). *)

val die_area_estimate : t -> float
(** Roadmap-level die area estimate, m^2:
    [density * cell_factor * F^2 / array_efficiency].  The detailed floorplan
    model refines this. *)

val rows_per_bank : t -> int
val row_address_bits : t -> int
val column_address_bits : t -> int
val bank_address_bits : t -> int
