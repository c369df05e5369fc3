(** The abstract evaluator: the Figure 4 pipeline — capacitance
    extraction, background power, pattern mix — over interval-valued
    configurations.

    The circuit equations are the interval twin generated from the
    float source ({!Vdram_core.Physics_interval}), each operation in the
    same order, so by induction each concrete intermediate of evaluating
    any member of the box lies inside the mirrored interval.  The
    per-stage qcheck property in the test suite exercises this
    correspondence on random boxes. *)

type contribution = {
  label : string;
  domain : Vdram_circuits.Domains.domain;
  energy : Vdram_units.Interval.t;
}

type stages = {
  op_contributions :
    (Vdram_core.Operation.kind * contribution list) list;
      (** extraction stage: per-operation contribution lists *)
  op_energy : (Vdram_core.Operation.kind * Vdram_units.Interval.t) list;
      (** per-operation energies referred to Vdd *)
  background : Vdram_units.Interval.t;  (** watts *)
  power : Vdram_units.Interval.t;       (** watts, pattern average *)
  current : Vdram_units.Interval.t;     (** amperes *)
  loop_time : float;                    (** seconds; no lens moves it *)
  bits_per_loop : float;
  energy_per_bit : Vdram_units.Interval.t option;
      (** J/bit; [None] for data-less patterns *)
}

val analyze : Abox.t -> Vdram_core.Pattern.t -> stages
(** Run the full abstract pipeline for one pattern over a box. *)
