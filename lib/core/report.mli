(** Model output: power, current and breakdown of a pattern run. *)

type t = {
  config_name : string;
  pattern_name : string;
  power : float;            (** total average power, W *)
  current : float;          (** Idd = power / Vdd, A *)
  background_power : float; (** clock + always-on logic + constant sink *)
  loop_time : float;        (** s *)
  bits_per_loop : float;    (** data bits moved per loop *)
  energy_per_bit : float option;
      (** J/bit when the pattern moves data (paper: "often given in
          mW per Gb/s which is equivalent to pJ/bit") *)
  op_rates : (Operation.kind * float) list;
      (** command occurrences per second *)
  breakdown : (string * float) list;
      (** average power per contribution label, W at the Vdd pins,
          descending *)
}

val is_finite : t -> bool
(** Whether every numeric field — power, current, background power,
    loop time, bits per loop, energy per bit, every op rate and every
    breakdown entry — is finite (no NaN or infinity).  The supervised
    runtime uses this to turn a silently-poisoned report into a
    classified failure record. *)

val pp : Format.formatter -> t -> unit
(** Summary with Idd and the top breakdown entries. *)

val pp_full : Format.formatter -> t -> unit
(** Full breakdown listing. *)

type category =
  | Array            (** bitline sensing, restore, sense-amplifier *)
  | Row_path         (** wordlines, row decode, row control logic *)
  | Column_path      (** CSL, array data lines, column logic *)
  | Data_path        (** center-stripe data buses, (de)serializer *)
  | Interface        (** DQ pre-drivers/receivers, input bias *)
  | Clocking         (** clock tree, DLL *)
  | Peripheral_logic (** remaining control logic and address buses *)
  | Static           (** constant current sinks *)

val category_name : category -> string

val category_of_label : string -> category
(** Classify a breakdown label. *)

val by_category : t -> (category * float) list
(** Power per category, descending — the paper's "share of power
    shifting away from the cell array to general logic" view. *)
