(** Vendor datasheet Idd values for the Figure 8 / Figure 9
    verification.

    Values are transcribed from public 1 Gb DDR2 and DDR3 datasheets
    of the major vendors of the era (Samsung, Hynix, Micron, Elpida,
    Qimonda — the paper's references [22], [23]); per-vendor numbers
    carry the representative spread the paper shows.  Currents are
    milliamperes at the nominal supply. *)

type test = Idd0 | Idd4r | Idd4w

type point = {
  test : test;
  datarate_mbps : int;  (** per-pin data rate of the speed grade *)
  io_width : int;
  vendors_ma : float list;  (** one value per vendor datasheet *)
}

val label : point -> string
(** The x-axis label style of Figures 8/9, e.g. ["Idd0 533 x4"]. *)

val min_ma : point -> float
val max_ma : point -> float
val mean_ma : point -> float

type family = {
  name : string;
  standard : Vdram_tech.Node.standard;
  vdd : float;
  points : point list;
}

val ddr2_1g : family
(** 1 Gb DDR2: Idd0 / Idd4R / Idd4W at 400, 533, 667 and 800 Mb/s/pin
    for x4 and x16 parts (Figure 8). *)

val ddr3_1g : family
(** 1 Gb DDR3: Idd0 / Idd4R / Idd4W at 800, 1066 and 1333 Mb/s/pin
    for x4 and x16 parts (Figure 9). *)

val ddr3_2g : family
(** 2 Gb DDR3 x16 (the Table III contemporary device's class):
    Idd0 / Idd4R / Idd4W at 1066 and 1333 Mb/s/pin.  Not part of the
    paper's figures; used to check the density dependence. *)
