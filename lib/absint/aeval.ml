(* The abstract evaluator: the Figure 4 pipeline on interval-valued
   configurations.

   The circuit equations are not written here: [Physics_interval] is
   generated at build time from the float source (tools/physgen), each
   float operation replaced by its outward-rounded [Interval]
   counterpart in the same order.  Soundness is then by induction: if
   each scalar a concrete evaluation reads lies inside the interval the
   box assigns it — which [Abox.field] guarantees for every lifted
   field — then every intermediate concrete float lies inside the
   mirrored interval.  The per-stage qcheck property in the test suite
   exercises this correspondence.

   This module keeps three jobs: lifting the box into the generated
   interval records, assembling each operation from the same
   [Operation.steps] the float path walks, and the model stage
   (background, pattern mix, energy per bit). *)

module I = Vdram_units.Interval
module A = Vdram_core.Physics_interval
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Operation = Vdram_core.Operation
module Model = Vdram_core.Model
module Domains = Vdram_circuits.Domains

open I.O

type contribution = A.Contribution.t = {
  label : string;
  domain : Domains.domain;
  energy : I.t;
}

type stages = {
  op_contributions : (Operation.kind * contribution list) list;
  op_energy : (Operation.kind * I.t) list;
  background : I.t;
  power : I.t;
  current : I.t;
  loop_time : float;
  bits_per_loop : float;
  energy_per_bit : I.t option;
}

(* The box lifted once: every float of the technology, the domains and
   each logic block through [Abox.field], plus the configuration-level
   loads the interface and the mix read.  The structural inputs are
   read off the nominal configuration after [Abox.fixed] has checked
   that no axis moves them. *)
type env = {
  base : Config.t;
  tech : A.Params.t;
  domains : A.Domains.t;
  logic : (A.Logic_block.t * string) list;
  toggle : I.t;
  predriver_cap : I.t;
  receiver_cap : I.t;
  receiver_bias : I.t;
  geometry : Vdram_floorplan.Array_geometry.t;
  page : int;
  bits : int;
}

let lift box =
  let field = Abox.field box in
  let base = Abox.base box in
  let fixed get = ignore (Abox.fixed box get) in
  fixed (fun c -> c.Config.floorplan);
  fixed (fun c -> c.Config.buses);
  fixed (fun c -> c.Config.spec);
  fixed (fun c -> c.Config.activation_fraction);
  fixed (fun c -> c.Config.input_receivers);
  fixed (fun c ->
      List.map
        (fun (b : Vdram_circuits.Logic_block.t) ->
          (b.Vdram_circuits.Logic_block.name, b.trigger))
        c.Config.logic);
  let labels = Operation.logic_labels base.Config.logic in
  {
    base;
    tech =
      A.Params.lift (fun get -> field (fun c -> get c.Config.tech)) base.Config.tech;
    domains =
      A.Domains.lift
        (fun get -> field (fun c -> get c.Config.domains))
        base.Config.domains;
    logic =
      List.mapi
        (fun i b ->
          ( A.Logic_block.lift
              (fun get -> field (fun c -> get (List.nth c.Config.logic i)))
              b,
            labels.(i) ))
        base.Config.logic;
    toggle = field (fun c -> c.Config.data_toggle);
    predriver_cap = field (fun c -> c.Config.io_predriver_cap);
    receiver_cap = field (fun c -> c.Config.io_receiver_cap);
    receiver_bias = field (fun c -> c.Config.receiver_bias);
    geometry = Config.geometry base;
    page = Config.activated_bits base;
    bits = Spec.bits_per_column_command base.Config.spec;
  }

(* ----- operation assembly ------------------------------------------ *)

let buses e roles f =
  List.concat_map
    (fun (role, label) ->
      match Config.bus e.base role with None -> [] | Some b -> [ f b ~label ])
    roles

let step e kind = function
  | Operation.Wordline_activate ->
    A.Wordline.activate e.tech e.domains ~geometry:e.geometry ~page_bits:e.page
  | Operation.Wordline_precharge ->
    A.Wordline.precharge e.tech e.domains ~geometry:e.geometry ~page_bits:e.page
  | Operation.Sense_amp_activate ->
    A.Sense_amp.activate e.tech e.domains ~geometry:e.geometry ~page_bits:e.page
  | Operation.Sense_amp_precharge ->
    A.Sense_amp.precharge e.tech e.domains ~geometry:e.geometry ~page_bits:e.page
  | Operation.Sense_amp_write_back ->
    A.Sense_amp.write_back e.tech e.domains ~bits:e.bits ~toggle:e.toggle
  | Operation.Column_access { write } ->
    A.Column.access e.tech e.domains ~geometry:e.geometry ~bits:e.bits ~write
  | Operation.Bus_events roles ->
    buses e roles (A.Bus.event_contribution e.tech e.domains)
  | Operation.Data_transfer (role, label) ->
    buses e [ (role, label) ] (fun b ~label ->
        A.Bus.transfer_contribution e.tech e.domains b ~label ~bits:e.bits)
  | Operation.Dq_interface { write } ->
    A.Interface.dq e.domains ~toggle:e.toggle ~receiver_cap:e.receiver_cap
      ~predriver_cap:e.predriver_cap ~bits:e.bits ~write
  | Operation.Logic_blocks ->
    List.filter_map
      (fun ((b : A.Logic_block.t), label) ->
        if Operation.trigger_matches b.A.Logic_block.trigger kind then
          Some (A.Logic_block.contribution e.tech e.domains b ~label)
        else None)
      e.logic

let contributions e kind =
  Array.to_list (Operation.steps kind) |> List.concat_map (step e kind)

(* ----- model stage ------------------------------------------------- *)

let receiver_bias_power e =
  I.of_int e.base.Config.input_receivers * e.receiver_bias
  * e.domains.A.Domains.vdd

let analyze box pattern =
  let e = lift box in
  let spec = e.base.Config.spec in
  let vdd = e.domains.A.Domains.vdd in
  let op_contributions =
    List.map (fun kind -> (kind, contributions e kind)) Operation.all
  in
  let op_energy =
    List.map
      (fun (kind, cs) -> (kind, A.Contribution.total_at_vdd e.domains cs))
      op_contributions
  in
  let nop = List.assoc Operation.Nop op_energy in
  let background =
    (nop * I.point spec.Spec.control_clock)
    + (e.domains.A.Domains.i_constant * vdd)
    + receiver_bias_power e
  in
  let loop_time = Model.loop_time spec pattern in
  let op_power =
    List.fold_left
      (fun acc (kind, count) ->
        acc
        + (I.of_int count * List.assoc kind op_energy / I.point loop_time))
      I.zero (Model.op_counts pattern)
  in
  let power = background + op_power in
  let current = power / vdd in
  let bits_per_loop = Model.bits_per_loop spec pattern in
  let energy_per_bit =
    if bits_per_loop > 0.0 then
      Some (power * I.point loop_time / I.point bits_per_loop)
    else None
  in
  {
    op_contributions;
    op_energy;
    background;
    power;
    current;
    loop_time;
    bits_per_loop;
    energy_per_bit;
  }
