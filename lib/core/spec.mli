(** Interface specification of a DRAM device (Table I,
    "Specification" group). *)

type t = {
  io_width : int;          (** DQ pins *)
  datarate : float;        (** bit/s per DQ pin *)
  clock_wires : int;       (** clock wires on die *)
  data_clock : float;      (** Hz *)
  control_clock : float;   (** Hz; command/address sampling rate *)
  bank_bits : int;
  row_bits : int;
  col_bits : int;
  misc_control : int;      (** miscellaneous control signals *)
  prefetch : int;          (** internal (de)serialisation ratio *)
  burst_length : int;
  banks : int;
  density_bits : float;    (** total device capacity in bits *)
  trc : float;             (** row cycle time, s *)
  trcd : float;            (** activate-to-column delay, s *)
  trp : float;             (** precharge time, s *)
  tfaw : float;            (** four-activate window, s *)
  trefi : float;           (** average refresh-command interval, s *)
  trfc : float;            (** refresh cycle time, s *)
}

val v :
  ?clock_wires:int -> ?misc_control:int -> ?tfaw:float ->
  ?trefi:float -> ?trfc:float ->
  io_width:int -> datarate:float -> control_clock:float ->
  bank_bits:int -> row_bits:int -> col_bits:int ->
  prefetch:int -> burst_length:int -> banks:int ->
  density_bits:float -> trc:float -> trcd:float -> trp:float ->
  unit -> t
(** [data_clock] is set equal to [control_clock]; [clock_wires]
    defaults to 1, [misc_control] to 6 and [tfaw] to [0.8 * trc];
    [trefi] defaults to the JEDEC 7.8 us and [trfc] to the JEDEC
    refresh cycle time stepped with capacity (110 ns up to 1 Gb,
    160 ns at 2 Gb, 260 ns at 4 Gb, 350 ns beyond).  Raises
    [Invalid_argument] on non-positive counts or rates. *)

val bits_per_clock : t -> float
(** Bits transferred per DQ pin per control clock:
    [datarate / control_clock] (2.0 for double data rate). *)

val bits_per_column_command : t -> int
(** [io_width * burst_length]. *)

val clocks_per_column_command : t -> int
(** Control-clock cycles one burst occupies on the data pins
    (ceiling), the minimum command spacing for gapless streaming. *)

val core_clock : t -> float
(** Internal core frequency: [datarate / prefetch]. *)

val pp : Format.formatter -> t -> unit
