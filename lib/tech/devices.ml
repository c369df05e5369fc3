(* Gate and junction capacitance of MOS devices. *)

let eps_ox = 3.9 *. 8.854e-12 [@@physics]

let gate_cap ~tox ~w ~l = eps_ox /. tox *. w *. l [@@physics]

type mos_class = Logic | High_voltage | Cell

let tox_of (p : Params.t) = function
  | Logic -> p.tox_logic
  | High_voltage -> p.tox_hv
  | Cell -> p.tox_cell
[@@physics]

let cj_of (p : Params.t) = function
  | Logic -> p.cj_logic
  | High_voltage -> p.cj_hv
  | Cell -> p.cj_hv (* array junctions behave like the HV class *)
[@@physics]

let gate_cap_of p cls ~w ~l = gate_cap ~tox:(tox_of p cls) ~w ~l [@@physics]

let junction_cap_of p cls ~w = cj_of p cls *. w [@@physics]

let device_cap p cls ~w ~l = gate_cap_of p cls ~w ~l +. junction_cap_of p cls ~w
[@@physics]
