(** Predefined device configurations used throughout the paper's
    evaluation. *)

val mb : float -> float
(** [mb n] is [n * 2^20] bits. *)

val sdr_128m : Vdram_core.Config.t
(** 128 Mb SDR x16-166 in 170 nm — the old device of Fig 10/Table III. *)

val ddr2_1g :
  ?io_width:int -> ?datarate:float -> node:Vdram_tech.Node.t -> unit ->
  Vdram_core.Config.t
(** 1 Gb DDR2 for the Figure 8 verification.  [node] should be [N75]
    or [N65] (the typical high-volume nodes of the comparison);
    datarate defaults to 800 Mb/s/pin.  x4/x8 parts use a 1 KB page,
    x16 a 2 KB page, as the commodity parts did. *)

val ddr3_1g :
  ?io_width:int -> ?datarate:float -> node:Vdram_tech.Node.t -> unit ->
  Vdram_core.Config.t
(** 1 Gb DDR3 for the Figure 9 verification ([N65] or [N55]);
    datarate defaults to 1066 Mb/s/pin. *)

val ddr3_2g : Vdram_core.Config.t
(** 2 Gb DDR3 x16-1333 in 55 nm — the contemporary device of
    Table III. *)

val ddr5_16g : Vdram_core.Config.t
(** 16 Gb DDR5 x16-5333 in 18 nm — the future device of Fig 10 /
    Table III (the paper calls it a hypothetical DDR5). *)

val table3_devices : Vdram_core.Config.t list
(** The three sensitivity-study devices: [sdr_128m; ddr3_2g;
    ddr5_16g]. *)
