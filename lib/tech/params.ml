(* Technology parameters (Table I "Technology" group). *)

type t = {
  tox_logic : float;
  tox_hv : float;
  tox_cell : float;
  lmin_logic : float;
  cj_logic : float;
  lmin_hv : float;
  cj_hv : float;
  l_cell : float;
  w_cell : float;
  c_bitline : float;
  c_cell : float;
  bl_wl_coupling : float;
  bits_per_csl : int;
  c_wire_mwl : float;
  mwl_predecode : float;
  w_mwl_dec_n : float;
  w_mwl_dec_p : float;
  mwl_dec_activity : float;
  w_wlctl_load_n : float;
  w_wlctl_load_p : float;
  w_lwd_n : float;
  w_lwd_p : float;
  w_lwd_restore : float;
  c_wire_lwl : float;
  w_sa_n : float;
  l_sa_n : float;
  w_sa_p : float;
  l_sa_p : float;
  w_sa_eq : float;
  l_sa_eq : float;
  w_sa_bitswitch : float;
  l_sa_bitswitch : float;
  w_sa_mux : float;
  l_sa_mux : float;
  w_sa_nset : float;
  l_sa_nset : float;
  w_sa_pset : float;
  l_sa_pset : float;
  c_wire_signal : float;
}
[@@physics]

let reference_node = Node.N55

(* Calibrated to a typical 55 nm commodity DDR3 process: bitline of 512
   cells at ~75 fF, 25 fF storage cell, on-pitch devices sized to the
   bitline pitch, wire capacitance ~0.35 fF/um. *)
let reference = {
  tox_logic = 5.0e-9;
  tox_hv = 8.0e-9;
  tox_cell = 7.0e-9;
  lmin_logic = 0.09e-6;
  cj_logic = 0.8e-9;          (* 0.8 fF per um of gate width *)
  lmin_hv = 0.35e-6;
  cj_hv = 1.0e-9;
  l_cell = 0.10e-6;           (* recessed channel, longer than F *)
  w_cell = 0.055e-6;
  c_bitline = 75.0e-15;
  c_cell = 25.0e-15;
  bl_wl_coupling = 0.15;
  bits_per_csl = 8;
  c_wire_mwl = 0.35e-9;       (* 0.25 fF/um, M2 aluminium *)
  mwl_predecode = 8.0;
  w_mwl_dec_n = 0.4e-6;
  w_mwl_dec_p = 0.6e-6;
  mwl_dec_activity = 0.25;
  w_wlctl_load_n = 0.3e-6;
  w_wlctl_load_p = 0.3e-6;
  w_lwd_n = 0.6e-6;
  w_lwd_p = 0.8e-6;
  w_lwd_restore = 0.3e-6;
  c_wire_lwl = 0.20e-9;       (* gate poly stripe, wire part only *)
  w_sa_n = 0.7e-6;
  l_sa_n = 0.12e-6;
  w_sa_p = 0.5e-6;
  l_sa_p = 0.12e-6;
  w_sa_eq = 0.3e-6;
  l_sa_eq = 0.10e-6;
  w_sa_bitswitch = 0.5e-6;
  l_sa_bitswitch = 0.10e-6;
  w_sa_mux = 0.4e-6;
  l_sa_mux = 0.10e-6;
  w_sa_nset = 0.4e-6;
  l_sa_nset = 0.15e-6;
  w_sa_pset = 0.6e-6;
  l_sa_pset = 0.15e-6;
  c_wire_signal = 0.35e-9;
}

let count = 39

let fields =
  [ ("gate oxide thickness logic", (fun t -> t.tox_logic),
     fun t v -> { t with tox_logic = v });
    ("gate oxide thickness high voltage", (fun t -> t.tox_hv),
     fun t v -> { t with tox_hv = v });
    ("gate oxide thickness cell transistor", (fun t -> t.tox_cell),
     fun t v -> { t with tox_cell = v });
    ("minimum gate length logic", (fun t -> t.lmin_logic),
     fun t v -> { t with lmin_logic = v });
    ("junction capacitance logic", (fun t -> t.cj_logic),
     fun t v -> { t with cj_logic = v });
    ("minimum gate length high voltage", (fun t -> t.lmin_hv),
     fun t v -> { t with lmin_hv = v });
    ("junction capacitance high voltage", (fun t -> t.cj_hv),
     fun t v -> { t with cj_hv = v });
    ("gate length cell transistor", (fun t -> t.l_cell),
     fun t v -> { t with l_cell = v });
    ("gate width cell transistor", (fun t -> t.w_cell),
     fun t v -> { t with w_cell = v });
    ("bitline capacitance", (fun t -> t.c_bitline),
     fun t v -> { t with c_bitline = v });
    ("cell capacitance", (fun t -> t.c_cell),
     fun t v -> { t with c_cell = v });
    ("bitline-wordline coupling share", (fun t -> t.bl_wl_coupling),
     fun t v -> { t with bl_wl_coupling = v });
    ("specific wire capacitance master wordline", (fun t -> t.c_wire_mwl),
     fun t v -> { t with c_wire_mwl = v });
    ("pre-decode ratio master wordline", (fun t -> t.mwl_predecode),
     fun t v -> { t with mwl_predecode = v });
    ("width master wordline decoder NMOS", (fun t -> t.w_mwl_dec_n),
     fun t v -> { t with w_mwl_dec_n = v });
    ("width master wordline decoder PMOS", (fun t -> t.w_mwl_dec_p),
     fun t v -> { t with w_mwl_dec_p = v });
    ("switching activity master wordline decoder",
     (fun t -> t.mwl_dec_activity),
     fun t v -> { t with mwl_dec_activity = v });
    ("width load NMOS wordline controller", (fun t -> t.w_wlctl_load_n),
     fun t v -> { t with w_wlctl_load_n = v });
    ("width load PMOS wordline controller", (fun t -> t.w_wlctl_load_p),
     fun t v -> { t with w_wlctl_load_p = v });
    ("width sub-wordline driver NMOS", (fun t -> t.w_lwd_n),
     fun t v -> { t with w_lwd_n = v });
    ("width sub-wordline driver PMOS", (fun t -> t.w_lwd_p),
     fun t v -> { t with w_lwd_p = v });
    ("width sub-wordline restore NMOS", (fun t -> t.w_lwd_restore),
     fun t v -> { t with w_lwd_restore = v });
    ("specific wire capacitance sub-wordline", (fun t -> t.c_wire_lwl),
     fun t v -> { t with c_wire_lwl = v });
    ("width sense-amplifier NMOS pair", (fun t -> t.w_sa_n),
     fun t v -> { t with w_sa_n = v });
    ("length sense-amplifier NMOS pair", (fun t -> t.l_sa_n),
     fun t v -> { t with l_sa_n = v });
    ("width sense-amplifier PMOS pair", (fun t -> t.w_sa_p),
     fun t v -> { t with w_sa_p = v });
    ("length sense-amplifier PMOS pair", (fun t -> t.l_sa_p),
     fun t v -> { t with l_sa_p = v });
    ("width sense-amplifier equalize", (fun t -> t.w_sa_eq),
     fun t v -> { t with w_sa_eq = v });
    ("length sense-amplifier equalize", (fun t -> t.l_sa_eq),
     fun t v -> { t with l_sa_eq = v });
    ("width sense-amplifier bit switch", (fun t -> t.w_sa_bitswitch),
     fun t v -> { t with w_sa_bitswitch = v });
    ("length sense-amplifier bit switch", (fun t -> t.l_sa_bitswitch),
     fun t v -> { t with l_sa_bitswitch = v });
    ("width sense-amplifier bitline multiplexer", (fun t -> t.w_sa_mux),
     fun t v -> { t with w_sa_mux = v });
    ("length sense-amplifier bitline multiplexer", (fun t -> t.l_sa_mux),
     fun t v -> { t with l_sa_mux = v });
    ("width sense-amplifier NMOS set device", (fun t -> t.w_sa_nset),
     fun t v -> { t with w_sa_nset = v });
    ("length sense-amplifier NMOS set device", (fun t -> t.l_sa_nset),
     fun t v -> { t with l_sa_nset = v });
    ("width sense-amplifier PMOS set device", (fun t -> t.w_sa_pset),
     fun t v -> { t with w_sa_pset = v });
    ("length sense-amplifier PMOS set device", (fun t -> t.l_sa_pset),
     fun t v -> { t with l_sa_pset = v });
    ("specific wire capacitance signaling", (fun t -> t.c_wire_signal),
     fun t v -> { t with c_wire_signal = v });
  ]

let n_fields = List.length fields

(* Field for field by hand: one record per call instead of one copy
   per setter. *)
let of_array t a =
  if Array.length a <> n_fields then
    invalid_arg "Params.of_array: need one value per field";
  {
    tox_logic = a.(0);
    tox_hv = a.(1);
    tox_cell = a.(2);
    lmin_logic = a.(3);
    cj_logic = a.(4);
    lmin_hv = a.(5);
    cj_hv = a.(6);
    l_cell = a.(7);
    w_cell = a.(8);
    c_bitline = a.(9);
    c_cell = a.(10);
    bl_wl_coupling = a.(11);
    c_wire_mwl = a.(12);
    mwl_predecode = a.(13);
    w_mwl_dec_n = a.(14);
    w_mwl_dec_p = a.(15);
    mwl_dec_activity = a.(16);
    w_wlctl_load_n = a.(17);
    w_wlctl_load_p = a.(18);
    w_lwd_n = a.(19);
    w_lwd_p = a.(20);
    w_lwd_restore = a.(21);
    c_wire_lwl = a.(22);
    w_sa_n = a.(23);
    l_sa_n = a.(24);
    w_sa_p = a.(25);
    l_sa_p = a.(26);
    w_sa_eq = a.(27);
    l_sa_eq = a.(28);
    w_sa_bitswitch = a.(29);
    l_sa_bitswitch = a.(30);
    w_sa_mux = a.(31);
    l_sa_mux = a.(32);
    w_sa_nset = a.(33);
    l_sa_nset = a.(34);
    w_sa_pset = a.(35);
    l_sa_pset = a.(36);
    c_wire_signal = a.(37);
    bits_per_csl = t.bits_per_csl;
  }

let pp ppf t =
  let q dim v = Vdram_units.Quantity.to_string dim v in
  let open Vdram_units.Quantity in
  let line name s = Format.fprintf ppf "  %-46s %s@," name s in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, get, _) ->
      let v = get t in
      let dim =
        if String.length name > 4 && String.sub name 0 5 = "width" then Length
        else if String.length name > 5 && String.sub name 0 6 = "length"
        then Length
        else
          match name with
          | "gate oxide thickness logic"
          | "gate oxide thickness high voltage"
          | "gate oxide thickness cell transistor"
          | "minimum gate length logic"
          | "minimum gate length high voltage"
          | "gate length cell transistor"
          | "gate width cell transistor" -> Length
          | "junction capacitance logic"
          | "junction capacitance high voltage" -> Cap_per_length
          | "bitline capacitance" | "cell capacitance" -> Capacitance
          | "specific wire capacitance master wordline"
          | "specific wire capacitance sub-wordline"
          | "specific wire capacitance signaling" -> Cap_per_length
          | "bitline-wordline coupling share" -> Fraction
          | _ -> Scalar
      in
      line name (q dim v))
    fields;
  line "bits accessed per column select line"
    (string_of_int t.bits_per_csl);
  Format.fprintf ppf "@]"
