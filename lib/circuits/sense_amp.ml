(* Charge model of the bitline sense-amplifier stripe (Fig 2). *)

[@@@physics Sense_amp]

module P = Vdram_tech.Params
module D = Vdram_tech.Devices
module G = Vdram_floorplan.Array_geometry

let transistors_per_pair (g : G.t) =
  match g.style with G.Folded -> 11 | G.Open -> 9

(* Device load each bitline carries from the amplifier: the gate of
   one sense NMOS and one sense PMOS (cross-coupled), their junctions,
   plus junctions of the equalize device, the bit switch and (folded)
   the bitline multiplexer. *)
let bitline_device_load (p : P.t) (g : G.t) =
  let gate = D.gate_cap_of p D.Logic
  and junction = D.junction_cap_of p D.Logic in
  let sense =
    gate ~w:p.w_sa_n ~l:p.l_sa_n
    +. gate ~w:p.w_sa_p ~l:p.l_sa_p
    +. junction ~w:p.w_sa_n
    +. junction ~w:p.w_sa_p
  in
  let eq_junction = D.junction_cap_of p D.High_voltage ~w:p.w_sa_eq in
  let switch_junction = junction ~w:p.w_sa_bitswitch in
  let mux_junction =
    match g.style with
    | G.Folded -> D.junction_cap_of p D.High_voltage ~w:p.w_sa_mux
    | G.Open -> 0.0
  in
  sense +. eq_junction +. switch_junction +. mux_junction
[@@physics]

let set_gate_cap (p : P.t) =
  D.gate_cap_of p D.Logic ~w:p.w_sa_nset ~l:p.l_sa_nset
  +. D.gate_cap_of p D.Logic ~w:p.w_sa_pset ~l:p.l_sa_pset
[@@physics]

let common_node_cap (p : P.t) =
  D.junction_cap_of p D.Logic ~w:p.w_sa_n
  +. D.junction_cap_of p D.Logic ~w:p.w_sa_p
  +. D.junction_cap_of p D.Logic ~w:p.w_sa_nset
  +. D.junction_cap_of p D.Logic ~w:p.w_sa_pset
[@@physics]

let equalize_gate_cap (p : P.t) =
  3.0 *. D.gate_cap_of p D.High_voltage ~w:p.w_sa_eq ~l:p.l_sa_eq
[@@physics]

let mux_gate_cap (p : P.t) (g : G.t) =
  match g.style with
  | G.Folded -> 2.0 *. D.gate_cap_of p D.High_voltage ~w:p.w_sa_mux ~l:p.l_sa_mux
  | G.Open -> 0.0
[@@physics]

let activate (p : P.t) (d : Domains.t) ~geometry ~page_bits =
  let n = float_of_int page_bits in
  let half_vbl = d.vbl /. 2.0 in
  let c ~label ~domain ~energy = Contribution.v ~label ~domain ~energy in
  [
    (* Each sensed pair swings half the array voltage per line; the
       midlevel equalize at precharge recycles half of the drawn
       charge (true and complement are shorted), so one activate
       books C * Vbl^2 / 4 per pair and the precharge books nothing
       for the bitlines themselves. *)
    c ~label:"bitline sensing" ~domain:Domains.Vbl
      ~energy:
        (Contribution.events ~count:n ~cap:(p.c_bitline /. 2.0)
           ~voltage:d.vbl);
    (* Restoring the charge-shared cell: half the cell swing on
       average, with the same equalize recycling. *)
    c ~label:"cell restore" ~domain:Domains.Vbl
      ~energy:
        (Contribution.events ~count:n ~cap:(p.c_cell /. 4.0)
           ~voltage:d.vbl);
    (* Amplifier device loads ride the same bitline swing. *)
    c ~label:"sense amplifier devices" ~domain:Domains.Vbl
      ~energy:
        (Contribution.events ~count:(2.0 *. n)
           ~cap:(bitline_device_load p geometry) ~voltage:half_vbl);
    (* NSET / PSET control gates fire once per activate ... *)
    c ~label:"sense amplifier set" ~domain:Domains.Vint
      ~energy:
        (Contribution.events ~count:n ~cap:(set_gate_cap p) ~voltage:d.vint);
    (* ... and the common source nodes swing half the array voltage. *)
    c ~label:"sense amplifier set" ~domain:Domains.Vbl
      ~energy:
        (Contribution.events ~count:(2.0 *. n) ~cap:(common_node_cap p)
           ~voltage:half_vbl);
    (* Equalize devices (Vpp gates) switch off for the activate. *)
    c ~label:"sense amplifier equalize control" ~domain:Domains.Vpp
      ~energy:
        (Contribution.events ~count:n ~cap:(equalize_gate_cap p)
           ~voltage:d.vpp);
    (* Folded architectures select the bitline segment per activate. *)
    c ~label:"bitline multiplexer" ~domain:Domains.Vpp
      ~energy:
        (Contribution.events ~count:n ~cap:(mux_gate_cap p geometry)
           ~voltage:d.vpp);
  ]
[@@physics]

let precharge (p : P.t) (d : Domains.t) ~geometry ~page_bits =
  let n = float_of_int page_bits in
  let c ~label ~domain ~energy = Contribution.v ~label ~domain ~energy in
  [
    (* Equalize gates re-assert; the bitline midlevel itself comes for
       free from shorting true and complement. *)
    c ~label:"sense amplifier equalize control" ~domain:Domains.Vpp
      ~energy:
        (Contribution.events ~count:n ~cap:(equalize_gate_cap p)
           ~voltage:d.vpp);
    (* Set lines release. *)
    c ~label:"sense amplifier set" ~domain:Domains.Vint
      ~energy:
        (Contribution.events ~count:n ~cap:(set_gate_cap p) ~voltage:d.vint);
    c ~label:"bitline multiplexer" ~domain:Domains.Vpp
      ~energy:
        (Contribution.events ~count:n ~cap:(mux_gate_cap p geometry)
           ~voltage:d.vpp);
  ]
[@@physics]

let write_back (p : P.t) (d : Domains.t) ~bits ~toggle =
  let flips = toggle *. float_of_int bits in
  [
    (* An overwritten bitline swings rail to rail: a discharge and a
       charge event of the full bitline. *)
    Contribution.v ~label:"bitline overwrite" ~domain:Domains.Vbl
      ~energy:
        (Contribution.events ~count:(2.0 *. flips) ~cap:p.c_bitline
           ~voltage:d.vbl);
    Contribution.v ~label:"cell restore" ~domain:Domains.Vbl
      ~energy:
        (Contribution.events ~count:flips ~cap:p.c_cell ~voltage:d.vbl);
  ]
[@@physics]
