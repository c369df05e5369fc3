(* Column-path charge model: CSL, data lines, secondary sense-amps. *)

[@@@physics Column]

module P = Vdram_tech.Params
module D = Vdram_tech.Devices
module G = Vdram_floorplan.Array_geometry

let csl_capacitance (p : P.t) ~geometry =
  let wire = p.c_wire_signal *. G.csl_length geometry in
  (* The CSL crosses every SA stripe of the blocks sharing it and
     drives [bits_per_csl] bit-switch gates in each. *)
  let stripes =
    float_of_int
      ((geometry.G.subarrays_along_bl + 1) * geometry.G.csl_blocks)
  in
  let switch_gates =
    float_of_int p.bits_per_csl
    *. D.gate_cap_of p D.Logic ~w:p.w_sa_bitswitch ~l:p.l_sa_bitswitch
  in
  wire +. (stripes *. switch_gates)
[@@physics]

let secondary_sa_cap (p : P.t) =
  (* Four logic transistors of sense-pair size per master data line
     pair: amplifier cross-couple plus write driver. *)
  4.0 *. D.device_cap p D.Logic ~w:p.w_sa_n ~l:p.l_sa_n
[@@physics]

let madl_pair_capacitance (p : P.t) ~geometry =
  (2.0 *. p.c_wire_signal *. G.madl_length geometry) +. secondary_sa_cap p
[@@physics]

let local_dq_pair_capacitance (p : P.t) ~geometry =
  (* The local data lines run along the SA stripe across one
     sub-array's width. *)
  2.0 *. p.c_wire_signal *. G.subarray_width geometry
[@@physics]

(* Column decode mirrors the row pre-decode but fires per column
   command; its pre-decode lines run along the column-logic stripe
   across the array block width. *)
let column_decode_energy (p : P.t) (d : Domains.t) ~geometry ~csl_fires =
  let decoder_gates =
    D.gate_cap_of p D.Logic ~w:p.w_mwl_dec_n ~l:p.lmin_logic
    +. D.gate_cap_of p D.Logic ~w:p.w_mwl_dec_p ~l:p.lmin_logic
  in
  let line =
    (p.c_wire_signal *. G.master_wordline_length geometry) +. decoder_gates
  in
  Contribution.events
    ~count:(csl_fires *. p.mwl_predecode *. p.mwl_dec_activity)
    ~cap:line ~voltage:d.vint
[@@physics]

let access (p : P.t) (d : Domains.t) ~geometry ~bits ~write =
  let nbits = float_of_int bits in
  let csl_fires = nbits /. float_of_int p.bits_per_csl in
  let c = Contribution.v in
  let base =
    [
      c ~label:"column decode" ~domain:Domains.Vint
        ~energy:(column_decode_energy p d ~geometry ~csl_fires);
      (* Each selected CSL pulses high and back low. *)
      c ~label:"column select line" ~domain:Domains.Vint
        ~energy:
          (Contribution.events ~count:(2.0 *. csl_fires)
             ~cap:(csl_capacitance p ~geometry) ~voltage:d.vint);
      (* Local data line pairs: precharged, one side swings per bit. *)
      c ~label:"local data lines" ~domain:Domains.Vbl
        ~energy:
          (Contribution.events ~count:nbits
             ~cap:(local_dq_pair_capacitance p ~geometry) ~voltage:d.vbl);
      (* Master array data lines: the precharged differential pair
         sees a precharge and an evaluate event per transported bit. *)
      c ~label:"master array data lines" ~domain:Domains.Vint
        ~energy:
          (Contribution.events ~count:(2.0 *. nbits)
             ~cap:(madl_pair_capacitance p ~geometry) ~voltage:d.vint);
      c ~label:"secondary sense amplifier" ~domain:Domains.Vint
        ~energy:
          (Contribution.events ~count:nbits ~cap:(secondary_sa_cap p)
             ~voltage:d.vint);
    ]
  in
  if write then
    (* Write drivers present an extra device load per pair while
       forcing the data lines. *)
    base
    @ [
        c ~label:"write drivers" ~domain:Domains.Vint
          ~energy:
            (Contribution.events ~count:nbits ~cap:(secondary_sa_cap p)
               ~voltage:d.vint);
      ]
  else base
[@@physics]
