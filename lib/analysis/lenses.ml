(* Parameter lenses over Config.t. *)

module Config = Vdram_core.Config
module Params = Vdram_tech.Params
module Domains = Vdram_circuits.Domains
module Logic_block = Vdram_circuits.Logic_block

type group = Voltage | Technology | Logic | Interface

let group_name = function
  | Voltage -> "voltages"
  | Technology -> "technology"
  | Logic -> "logic"
  | Interface -> "interface"

(* Default certified scale-factor band per group, consumed by the
   abstract interpreter (`vdram check`) when the caller declares no
   explicit range: how far a lens is normally swept multiplicatively
   around its nominal value. *)
let default_range = function
  | Voltage -> (0.9, 1.1)
  | Technology -> (0.85, 1.15)
  | Logic -> (0.8, 1.25)
  | Interface -> (0.8, 1.2)

(* Where a lens writes, so [scale_all] can gather every write to one
   record and build it once. *)
type target =
  | Tech of int  (* index in Params.fields *)
  | Domain of int  (* index in [domain_values] *)
  | Logic of (float -> Logic_block.t -> Logic_block.t)
  | Other  (* applied with [scale] *)

type t = {
  name : string;
  group : group;
  range : float * float;
  get : Config.t -> float;
  set : Config.t -> float -> Config.t;
  target : target;
}

let scale lens f cfg = lens.set cfg (lens.get cfg *. f)

let technology =
  List.mapi
    (fun i (name, get, set) ->
      {
        name;
        group = Technology;
        range = default_range Technology;
        get = (fun cfg -> get cfg.Config.tech);
        set = (fun cfg v -> Config.with_tech cfg (set cfg.Config.tech v));
        target = Tech i;
      })
    Params.fields

let with_domains f cfg v =
  Config.with_domains cfg (f cfg.Config.domains v)

let voltage_lens name get set i =
  {
    name;
    group = Voltage;
    range = default_range Voltage;
    get;
    set;
    target = Domain i;
  }

let voltages =
  [
    voltage_lens "external voltage Vdd"
      (fun c -> c.Config.domains.Domains.vdd)
      (with_domains (fun d v -> { d with Domains.vdd = v }))
      0;
    voltage_lens "internal voltage Vint"
      (fun c -> c.Config.domains.Domains.vint)
      (with_domains (fun d v -> { d with Domains.vint = v }))
      1;
    voltage_lens "bitline voltage"
      (fun c -> c.Config.domains.Domains.vbl)
      (with_domains (fun d v -> { d with Domains.vbl = v }))
      2;
    voltage_lens "wordline voltage Vpp"
      (fun c -> c.Config.domains.Domains.vpp)
      (with_domains (fun d v -> { d with Domains.vpp = v }))
      3;
    voltage_lens "generator efficiency Vint"
      (fun c -> c.Config.domains.Domains.eff_int)
      (with_domains (fun d v -> { d with Domains.eff_int = v }))
      4;
    voltage_lens "generator efficiency bitline voltage"
      (fun c -> c.Config.domains.Domains.eff_bl)
      (with_domains (fun d v -> { d with Domains.eff_bl = v }))
      5;
    voltage_lens "generator efficiency wordline voltage"
      (fun c -> c.Config.domains.Domains.eff_pp)
      (with_domains (fun d v -> { d with Domains.eff_pp = v }))
      6;
    voltage_lens "constant current adder"
      (fun c -> c.Config.domains.Domains.i_constant)
      (with_domains (fun d v -> { d with Domains.i_constant = v }))
      7;
  ]

(* Aggregate logic lenses scale every block; get returns the scale
   relative to the current configuration (1.0). *)
let logic_aggregate name update =
  {
    name;
    group = Logic;
    range = default_range Logic;
    get = (fun _ -> 1.0);
    set = (fun cfg f -> Config.map_logic cfg (update f));
    target = Logic update;
  }

let logic =
  [
    logic_aggregate "number of logic gates" (fun f b ->
        { b with Logic_block.gates = b.Logic_block.gates *. f });
    logic_aggregate "width NFET logic" (fun f b ->
        { b with Logic_block.w_nmos = b.Logic_block.w_nmos *. f });
    logic_aggregate "width PFET logic" (fun f b ->
        { b with Logic_block.w_pmos = b.Logic_block.w_pmos *. f });
    logic_aggregate "logic device density" (fun f b ->
        {
          b with
          Logic_block.layout_density = b.Logic_block.layout_density /. f;
        });
    logic_aggregate "logic wiring density" (fun f b ->
        {
          b with
          Logic_block.wiring_density = b.Logic_block.wiring_density *. f;
        });
    logic_aggregate "transistors per logic gate" (fun f b ->
        {
          b with
          Logic_block.transistors_per_gate =
            b.Logic_block.transistors_per_gate *. f;
        });
  ]

let interface_lens name get set =
  {
    name;
    group = Interface;
    range = default_range Interface;
    get;
    set;
    target = Other;
  }

let interface =
  [
    interface_lens "DQ pre-driver load"
      (fun c -> c.Config.io_predriver_cap)
      (fun c v -> { c with Config.io_predriver_cap = v });
    interface_lens "DQ receiver load"
      (fun c -> c.Config.io_receiver_cap)
      (fun c v -> { c with Config.io_receiver_cap = v });
    (* The toggle rate scales both the DQ interface events and the
       sense-amp write-back flips. *)
    interface_lens "data toggle rate"
      (fun c -> c.Config.data_toggle)
      (fun c v -> Config.with_data_toggle c v);
    (* Receiver bias is a mix-stage input, like the current adder. *)
    interface_lens "input receiver bias"
      (fun c -> c.Config.receiver_bias)
      (fun c v -> { c with Config.receiver_bias = v });
  ]

let all = voltages @ technology @ logic @ interface

let find name = List.find_opt (fun l -> l.name = name) all

(* The voltage fields in [Domain] index order. *)
let domain_values (d : Domains.t) =
  [|
    d.Domains.vdd; d.vint; d.vbl; d.vpp; d.eff_int; d.eff_bl; d.eff_pp;
    d.i_constant;
  |]

let domains_of_values a =
  {
    Domains.vdd = a.(0);
    vint = a.(1);
    vbl = a.(2);
    vpp = a.(3);
    eff_int = a.(4);
    eff_bl = a.(5);
    eff_pp = a.(6);
    i_constant = a.(7);
  }

let tech_getters =
  Array.of_list (List.map (fun (_, get, _) -> get) Params.fields)

(* Equal to the left fold of [scale] because the lenses write pairwise
   disjoint fields and a field written twice is multiplied in pair
   order: the technology and voltage values are gathered into arrays,
   the logic updates are applied block by block, and each record is
   built once. *)
let scale_all lenses factors cfg =
  if Array.length factors <> Array.length lenses then
    invalid_arg "Lenses.scale_all: need one factor per lens";
  let tech = ref [||] and domains = ref [||] and logic = ref [] in
  let rest = ref cfg in
  Array.iteri
    (fun i lens ->
      let f = factors.(i) in
      match lens.target with
      | Tech k ->
        if Array.length !tech = 0 then
          tech := Array.map (fun get -> get cfg.Config.tech) tech_getters;
        !tech.(k) <- !tech.(k) *. f
      | Domain k ->
        if Array.length !domains = 0 then
          domains := domain_values cfg.Config.domains;
        !domains.(k) <- !domains.(k) *. f
      | Logic update -> logic := update f :: !logic
      | Other -> rest := scale lens f !rest)
    lenses;
  let cfg = !rest in
  {
    cfg with
    Config.tech =
      (if Array.length !tech = 0 then cfg.Config.tech
       else Params.of_array cfg.Config.tech !tech);
    domains =
      (if Array.length !domains = 0 then cfg.Config.domains
       else domains_of_values !domains);
    logic =
      (match List.rev !logic with
       | [] -> cfg.Config.logic
       | updates ->
         List.map
           (fun b -> List.fold_left (fun b u -> u b) b updates)
           cfg.Config.logic);
  }
