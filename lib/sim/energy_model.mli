(** Energy integration: simulation counters times the analytical
    model's per-operation energies — the trace-driven use of the
    Figure 4 pipeline. *)

type report = {
  config_name : string;
  duration : float;        (** simulated wall time, s *)
  energy : float;          (** total J *)
  average_power : float;   (** W *)
  energy_per_bit : float;  (** J per transported data bit *)
  breakdown : (string * float) list;
      (** J per component: activate/precharge, read, write, refresh,
          background, power-down *)
  stats : Stats.t;
}

val powerdown_power : Vdram_core.Config.t -> float
(** Power while in precharge power-down: the constant sinks plus a
    residual share of the clocked background (clock stopped, DLL
    holding). *)

val of_stats : Vdram_core.Config.t -> Stats.t -> report

val loop_energy : Vdram_core.Config.t -> Vdram_core.Pattern.t -> float
(** One loop iteration of the pattern priced through {!of_stats},
    joules: raw slot counts over [Pattern.cycles p] cycles, no
    power-down or refresh.  Consistent with the analytical
    [Model.pattern_power cfg p *. Model.loop_time spec p], so the
    static analyses (`vdram advise`) and the abstract interpreter can
    compare their bounds against it. *)

val pp : Format.formatter -> report -> unit
