(** Signaling buses built from wire segments with optional device
    loads (Section III.B.2, "Signaling Floorplan").

    Long wires are interrupted by re-drivers (buffers) or multiplexers;
    each segment's capacitance is its length times the specific wire
    capacitance plus the gate and junction capacitance of the inserted
    devices.  Segment lengths are resolved against the physical
    floorplan (block center to block center) by the configuration
    layer before reaching this module. *)

type segment = {
  name : string;
  length : float;                  (** resolved wire length, m *)
  buffer : (float * float) option; (** NMOS / PMOS width of a re-driver *)
  mux : int option;                (** 1:n (de)serialisation at this point *)
  toggle : float;                  (** activity relative to one event *)
}

val segment :
  ?buffer:float * float -> ?mux:int -> ?toggle:float -> name:string ->
  length:float -> unit -> segment
(** [toggle] defaults to 1.0. *)

type role =
  | Write_data
  | Read_data
  | Row_address
  | Column_address
  | Bank_address
  | Command
  | Clock

val role_name : role -> string

type t = {
  name : string;
  role : role;
  wires : int;   (** parallel wires (address bits, clock wires, ...) *)
  segments : segment list;
}

val v : name:string -> role:role -> wires:int -> segment list -> t

val segment_capacitance : Vdram_tech.Params.t -> segment -> float
(** Wire plus buffer capacitance of one segment of one wire. *)

val energy_per_bit : Vdram_tech.Params.t -> Domains.t -> t -> float
(** Energy to move one bit through all segments of a data bus:
    serialization changes wire count and switching frequency but not
    the energy per transported bit, so data-bus energy is accounted
    per bit. *)

val energy_per_event : Vdram_tech.Params.t -> Domains.t -> t -> float
(** Energy of one bus event (an address/command presented, a clock
    edge pair): all wires toggle with their segments' activity. *)

val event_contribution :
  Vdram_tech.Params.t -> Domains.t -> t -> label:string -> Contribution.t
(** {!energy_per_event} as a Vint contribution labelled [label]. *)

val transfer_contribution :
  Vdram_tech.Params.t -> Domains.t -> t -> label:string -> bits:int ->
  Contribution.t
(** [bits] transported over a precharged dual-rail data bus, one
    {!energy_per_bit} each, as a Vint contribution labelled [label]. *)

val total_length : t -> float
