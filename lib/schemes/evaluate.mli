(** Quantitative scheme evaluation (Section V): power benefit per
    operation pattern together with the die-area impact, the
    comparison the paper's model exists to make quick. *)

type result = {
  scheme : Scheme.t;
  baseline_name : string;
  activate_energy_before : float;  (** J per activate *)
  activate_energy_after : float;
  idd0_saving : float;      (** fractional power saving on Idd0 *)
  idd4r_saving : float;
  idd7_saving : float;      (** on the Idd7-like mixed pattern *)
  energy_per_bit_before : float;   (** J/bit, mixed pattern *)
  energy_per_bit_after : float;
  die_area_before : float;         (** m^2 *)
  die_area_after : float;          (** with the scheme's area factor *)
}

val run :
  ?engine:Vdram_engine.Engine.t -> Vdram_core.Config.t -> Scheme.t -> result

val run_all :
  ?engine:Vdram_engine.Engine.t ->
  ?supervisor:Vdram_engine.Supervise.t ->
  Vdram_core.Config.t ->
  result list
(** Every scheme of {!Scheme.all} against the same baseline, one pool
    job per scheme.  Every scheme is evaluated against the baseline
    as its delta base, so the shared engine extracts the baseline once,
    not once per scheme.  With [supervisor] a scheme
    whose evaluation fails (or yields a non-finite result) drops out
    of the table and is recorded as a failure instead of aborting. *)

val compose : Scheme.t list -> Scheme.t
(** Stack schemes: transforms apply left to right, area factors
    multiply; the name joins the parts.  Raises [Invalid_argument] on
    an empty list. *)

val run_combined :
  ?engine:Vdram_engine.Engine.t ->
  Vdram_core.Config.t -> Scheme.t list -> result
(** Evaluate a stack of schemes as one — Section V's point that
    proposals must be compared (and combined) under one model.
    Savings compose sub-additively; the result quantifies by how
    much. *)

val pp_result : Format.formatter -> result -> unit

val pp_table : Format.formatter -> result list -> unit
(** The Section V comparison table: savings, energy per bit and area
    impact per scheme. *)
