(** Signaling-link termination schemes and their per-pin power.

    The paper deliberately excludes the Vddq interface power because
    it "has to be calculated based on the properties of the link
    between DRAM and controller, not based on the DRAM itself"
    (Section III.A).  This module is that calculation: the three
    termination families commodity DRAM interfaces have used, with
    their DC and switching components.

    All powers are per signal pin. *)

type scheme =
  | Unterminated of { c_load : float }
      (** LVTTL/LVCMOS-style full-swing CMOS line (SDR, LPDDR):
          pure [C·V²] switching into the lumped line+input load *)
  | Sstl of { rtt : float; r_driver : float }
      (** stub-series terminated to VTT = Vddq/2 (DDR/DDR2/DDR3):
          standing current through the termination whenever the line
          is driven away from VTT, in either state *)
  | Pod of { rtt : float; r_driver : float }
      (** pseudo-open-drain to Vddq (DDR4/DDR5): termination current
          only while driving low — half the DC duty of SSTL for random
          data *)

val scheme_name : scheme -> string

type t = {
  scheme : scheme;
  vddq : float;          (** signaling supply, V *)
  trace_cap : float;     (** board trace capacitance per line, F *)
  toggle : float;        (** data transition activity (0..1) *)
}

val v :
  ?trace_cap:float -> ?toggle:float -> scheme:scheme -> vddq:float ->
  unit -> t
(** Defaults: 2.5 pF of trace, 0.5 toggle.  Raises [Invalid_argument]
    on non-positive vddq or resistances. *)

val for_standard : Vdram_tech.Node.standard -> t
(** Era-typical link: SDR unterminated at 3.3 V; DDR SSTL-2; DDR2
    SSTL-18 with 75 ohm ODT; DDR3 SSTL-15 with 60 ohm; DDR4 POD-12
    with 48 ohm; DDR5 POD-11 with 48 ohm. *)

val active_power : t -> bitrate:float -> float
(** Power of one pin while transferring at [bitrate] (bit/s):
    switching plus the scheme's DC component. *)

val energy_per_bit : t -> bitrate:float -> float
(** [active_power / bitrate]. *)

val pp : Format.formatter -> t -> unit
