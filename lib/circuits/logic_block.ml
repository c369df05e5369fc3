(* Peripheral logic blocks: gates, densities, toggle rates. *)

[@@@physics Logic]

module P = Vdram_tech.Params
module D = Vdram_tech.Devices

type trigger =
  | Always
  | On_operation of [ `Activate | `Precharge | `Read | `Write ] list

type t = {
  name : string;
  gates : float;
  w_nmos : float;
  w_pmos : float;
  transistors_per_gate : float;
  layout_density : float;
  wiring_density : float;
  trigger : trigger;
  toggle : float;
}
[@@physics]

let v ?(w_nmos = 0.5e-6) ?(w_pmos = 0.5e-6) ?(transistors_per_gate = 4.0)
    ?(layout_density = 0.3) ?(wiring_density = 0.5) ?(toggle = 0.15) ~name
    ~gates ~trigger () =
  if gates < 0.0 then invalid_arg "Logic_block.v: negative gate count";
  {
    name;
    gates;
    w_nmos;
    w_pmos;
    transistors_per_gate;
    layout_density;
    wiring_density;
    trigger;
    toggle;
  }

let scale_widths f t = { t with w_nmos = t.w_nmos *. f; w_pmos = t.w_pmos *. f }

let avg_width t = (t.w_nmos +. t.w_pmos) /. 2.0
[@@physics]

(* Area of one gate: transistor area over the layout density. *)
let gate_area (p : P.t) t =
  t.transistors_per_gate *. avg_width t *. p.lmin_logic /. t.layout_density
[@@physics]

let gate_capacitance (p : P.t) t =
  let w = avg_width t in
  let device =
    t.transistors_per_gate
    *. (D.gate_cap_of p D.Logic ~w ~l:p.lmin_logic
        +. D.junction_cap_of p D.Logic ~w)
  in
  (* Local wiring: the covered wiring length at a pitch of four
     minimum gate lengths. *)
  let wire_length = t.wiring_density *. gate_area p t /. (4.0 *. p.lmin_logic) in
  device +. (p.c_wire_signal *. wire_length)
[@@physics]

let area (p : P.t) t = t.gates *. gate_area p t

let energy_per_fire (p : P.t) (d : Domains.t) t =
  t.gates *. t.toggle
  *. Contribution.event ~cap:(gate_capacitance p t) ~voltage:d.vint
[@@physics]

let contribution (p : P.t) (d : Domains.t) t ~label =
  Contribution.v ~label ~domain:Domains.Vint ~energy:(energy_per_fire p d t)
[@@physics]
