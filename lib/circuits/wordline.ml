(* Row-path charge model: decoder, master and local wordlines. *)

[@@@physics Wordline]

module P = Vdram_tech.Params
module D = Vdram_tech.Devices
module G = Vdram_floorplan.Array_geometry

(* Gate load one local wordline driver presents to its master
   wordline: the p- and n-channel driver gates (Fig 3). *)
let lwd_gate_load (p : P.t) =
  D.gate_cap_of p D.High_voltage ~w:p.w_lwd_n ~l:p.lmin_hv
  +. D.gate_cap_of p D.High_voltage ~w:p.w_lwd_p ~l:p.lmin_hv
[@@physics]

let mwl_capacitance (p : P.t) ~geometry =
  let wire = p.c_wire_mwl *. G.master_wordline_length geometry in
  let lwds = float_of_int (geometry.G.subarrays_along_wl + 1) in
  let decoder_junctions =
    D.junction_cap_of p D.High_voltage ~w:p.w_mwl_dec_n
    +. D.junction_cap_of p D.High_voltage ~w:p.w_mwl_dec_p
  in
  wire +. (lwds *. lwd_gate_load p) +. decoder_junctions
[@@physics]

let lwl_capacitance (p : P.t) ~geometry =
  let wire = p.c_wire_lwl *. G.lwl_length geometry in
  let cells =
    float_of_int geometry.G.bits_per_lwl
    *. D.gate_cap_of p D.Cell ~w:p.w_cell ~l:p.l_cell
  in
  (* The rising wordline must also charge the share of each crossing
     bitline's capacitance that couples to it. *)
  let coupling =
    float_of_int geometry.G.bits_per_lwl
    *. p.bl_wl_coupling *. p.c_bitline
    /. float_of_int geometry.G.bits_per_bitline
  in
  let restore_junction =
    D.junction_cap_of p D.High_voltage ~w:p.w_lwd_restore
  in
  wire +. cells +. coupling +. restore_junction
[@@physics]

(* Select lines from the wordline controller into the driver stripes:
   one per activated sub-array, loaded with the controller load
   devices and the restore gates of the drivers in the stripe. *)
let select_line_cap (p : P.t) =
  D.gate_cap_of p D.High_voltage ~w:p.w_wlctl_load_n ~l:p.lmin_hv
  +. D.gate_cap_of p D.High_voltage ~w:p.w_wlctl_load_p ~l:p.lmin_hv
  +. D.gate_cap_of p D.High_voltage ~w:p.w_lwd_restore ~l:p.lmin_hv
[@@physics]

(* Pre-decode: the row address fans out over pre-decoded lines running
   the length of the row-logic stripe, each loaded with decoder gates;
   only a share switches per access. *)
let predecode_energy (p : P.t) (d : Domains.t) ~geometry =
  let decoder_gates =
    D.gate_cap_of p D.Logic ~w:p.w_mwl_dec_n ~l:p.lmin_logic
    +. D.gate_cap_of p D.Logic ~w:p.w_mwl_dec_p ~l:p.lmin_logic
  in
  let line =
    (p.c_wire_signal *. G.madl_length geometry) +. decoder_gates
  in
  Contribution.events
    ~count:(p.mwl_predecode *. p.mwl_dec_activity *. 2.0)
    ~cap:line ~voltage:d.vint
[@@physics]

let row_events (p : P.t) (d : Domains.t) ~geometry ~page_bits =
  let n_lwl = float_of_int (page_bits / geometry.G.bits_per_lwl) in
  let mwl =
    Contribution.event ~cap:(mwl_capacitance p ~geometry) ~voltage:d.vpp
  in
  let lwl =
    Contribution.events ~count:n_lwl ~cap:(lwl_capacitance p ~geometry)
      ~voltage:d.vpp
  in
  let select =
    Contribution.events ~count:n_lwl ~cap:(select_line_cap p)
      ~voltage:d.vpp
  in
  (mwl, lwl, select)
[@@physics]

let activate (p : P.t) (d : Domains.t) ~geometry ~page_bits =
  let mwl, lwl, select = row_events p d ~geometry ~page_bits in
  [
    Contribution.v ~label:"row decode" ~domain:Domains.Vint
      ~energy:(predecode_energy p d ~geometry);
    Contribution.v ~label:"master wordline" ~domain:Domains.Vpp ~energy:mwl;
    Contribution.v ~label:"wordline select" ~domain:Domains.Vpp
      ~energy:select;
    Contribution.v ~label:"local wordline" ~domain:Domains.Vpp ~energy:lwl;
  ]
[@@physics]

let precharge (p : P.t) (d : Domains.t) ~geometry ~page_bits =
  let mwl, lwl, select = row_events p d ~geometry ~page_bits in
  [
    Contribution.v ~label:"master wordline" ~domain:Domains.Vpp ~energy:mwl;
    Contribution.v ~label:"wordline select" ~domain:Domains.Vpp
      ~energy:select;
    Contribution.v ~label:"local wordline" ~domain:Domains.Vpp ~energy:lwl;
  ]
[@@physics]
