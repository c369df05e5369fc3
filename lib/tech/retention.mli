(** Cell retention versus temperature.

    Refresh exists because the cell leaks; leakage is thermally
    activated, so retention halves roughly every 10 °C (the reason
    JEDEC doubles the refresh rate above 85 °C).  This converts an
    operating temperature into the refresh-interval scale used by the
    refresh studies. *)

val interval_scale : celsius:float -> float
(** Allowed refresh-interval multiple at a temperature:
    [2^((reference - T) / doubling)].  1.0 at 85 °C, 2.0 at 75 °C,
    0.5 at 95 °C. *)

val trefi : celsius:float -> float
(** Temperature-adjusted refresh interval, seconds
    ([7.8e-6 * interval_scale]). *)
