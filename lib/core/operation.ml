(* Per-operation charge determination. *)

module C = Vdram_circuits.Contribution
module Bus = Vdram_circuits.Bus
module Logic_block = Vdram_circuits.Logic_block
module Sense_amp = Vdram_circuits.Sense_amp
module Wordline = Vdram_circuits.Wordline
module Column = Vdram_circuits.Column
module Interface = Vdram_circuits.Interface

type kind = Activate | Precharge | Read | Write | Nop

let all = [ Activate; Precharge; Read; Write; Nop ]

(* Dense operation table: the staged engine's extraction record and
   the mix kernel index flat arrays by this instead of walking assoc
   lists. *)
let n = 5

let index = function
  | Activate -> 0
  | Precharge -> 1
  | Read -> 2
  | Write -> 3
  | Nop -> 4

let of_index = function
  | 0 -> Activate
  | 1 -> Precharge
  | 2 -> Read
  | 3 -> Write
  | 4 -> Nop
  | i -> invalid_arg (Printf.sprintf "Operation.of_index: %d" i)

let name = function
  | Activate -> "activate"
  | Precharge -> "precharge"
  | Read -> "read"
  | Write -> "write"
  | Nop -> "nop"

let to_trigger_op = function
  | Activate -> Some `Activate
  | Precharge -> Some `Precharge
  | Read -> Some `Read
  | Write -> Some `Write
  | Nop -> None

let trigger_matches trigger kind =
  match (trigger, kind) with
  | Logic_block.Always, Nop -> true
  | Logic_block.Always, _ -> false
  | Logic_block.On_operation ops, k ->
    (match to_trigger_op k with
     | Some op -> List.mem op ops
     | None -> false)

(* [activated_bits] lets a caller that has already resolved the
   floorplan (the staged engine's geometry stage) feed the page size in
   instead of re-deriving it from the configuration.

   Each operation's contribution list is a concatenation of per-group
   chunks.  The chunk plan of each kind — which group produces which
   chunk, in concatenation order — is static (it never depends on
   configuration values) and built once at module initialization as
   {!step}s evaluated over a per-configuration [ctx]: [segments] wraps
   them as thunks for callers that force every chunk, while
   delta-extraction reads {!plan} and calls {!chunk} for just the
   dirtied positions, paying no list construction per operation. *)
type ctx = {
  c_cfg : Config.t;
  c_p : Vdram_tech.Params.t;
  c_d : Vdram_circuits.Domains.t;
  c_g : Vdram_floorplan.Array_geometry.t;
  c_page : int;
  c_bits : int;
  mutable c_logic : (Logic_block.trigger * C.t) array;
      (* per-block contribution, built lazily on the first logic chunk
         and shared by every operation kind's chunk of one [ctx]: a
         block's per-fire energy and label never depend on which
         operation triggered it, so the five logic chunks differ only
         in which table rows they select.  [[||]] means not yet built
         (a configuration with no logic blocks just rebuilds the empty
         table, which costs nothing). *)
}

let ctx ?activated_bits ?geometry (cfg : Config.t) =
  {
    c_cfg = cfg;
    c_p = cfg.Config.tech;
    c_d = cfg.Config.domains;
    c_g =
      (match geometry with
      | Some g -> g
      | None -> Config.geometry cfg);
    c_page =
      (match activated_bits with
      | Some bits -> bits
      | None -> Config.activated_bits cfg);
    c_bits = Spec.bits_per_column_command cfg.Config.spec;
    c_logic = [||];
  }

(* Label strings per logic-block list, memoized on physical identity:
   perturbed configurations of a sweep share the block list with their
   base, so every [ctx] of the sweep reuses the very same strings
   instead of re-concatenating them — and delta-extraction's
   label-lockstep check against the base's labels short-circuits on
   physical equality instead of comparing characters. *)
let logic_labels_memo : (Logic_block.t list * string array) option Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> None)

let logic_labels blocks =
  match Domain.DLS.get logic_labels_memo with
  | Some (b, ls) when b == blocks -> ls
  | _ ->
    let ls =
      Array.of_list
        (List.map
           (fun (b : Logic_block.t) -> "logic: " ^ b.Logic_block.name)
           blocks)
    in
    Domain.DLS.set logic_labels_memo (Some (blocks, ls));
    ls

let logic_table x =
  if Array.length x.c_logic > 0 then x.c_logic
  else begin
    let labels = logic_labels x.c_cfg.Config.logic in
    let a =
      Array.of_list
        (List.mapi
           (fun i (b : Logic_block.t) ->
             ( b.Logic_block.trigger,
               Logic_block.contribution x.c_p x.c_d b ~label:labels.(i) ))
           x.c_cfg.Config.logic)
    in
    x.c_logic <- a;
    a
  end

(* Logic blocks that evaluate for this operation occurrence, in
   configuration order — selected rows of the shared table, so the
   contribution records themselves are shared between kinds. *)
let logic_contributions x kind =
  let tbl = logic_table x in
  let n = Array.length tbl in
  let rec collect i =
    if i >= n then []
    else
      let trigger, c = tbl.(i) in
      if trigger_matches trigger kind then c :: collect (i + 1)
      else collect (i + 1)
  in
  collect 0

(* The chunk plan: which charge model produces each chunk of an
   operation's contribution list, in concatenation order.  It is data,
   so the float evaluation below and the interval evaluator
   (Vdram_absint.Aeval) walk the same plan. *)
type step =
  | Wordline_activate
  | Wordline_precharge
  | Sense_amp_activate
  | Sense_amp_precharge
  | Sense_amp_write_back
  | Column_access of { write : bool }
  | Bus_events of (Bus.role * string) list
  | Data_transfer of Bus.role * string
  | Dq_interface of { write : bool }
  | Logic_blocks

let step_group = function
  | Wordline_activate | Wordline_precharge -> C.Wordline
  | Sense_amp_activate | Sense_amp_precharge | Sense_amp_write_back ->
    C.Sense_amp
  | Column_access _ -> C.Column
  | Bus_events _ | Data_transfer _ -> C.Bus
  | Dq_interface _ -> C.Interface
  | Logic_blocks -> C.Logic

let address_buses roles =
  Bus_events
    (List.map (fun role -> (role, Bus.role_name role ^ " bus")) roles)

let steps_of = function
  | Activate ->
    [|
      Wordline_activate;
      Sense_amp_activate;
      address_buses [ Bus.Row_address; Bus.Bank_address; Bus.Command ];
      Logic_blocks;
    |]
  | Precharge ->
    [|
      Wordline_precharge;
      Sense_amp_precharge;
      address_buses [ Bus.Bank_address; Bus.Command ];
      Logic_blocks;
    |]
  | Read ->
    [|
      Column_access { write = false };
      Data_transfer (Bus.Read_data, "read data bus");
      Dq_interface { write = false };
      address_buses [ Bus.Column_address; Bus.Bank_address; Bus.Command ];
      Logic_blocks;
    |]
  | Write ->
    [|
      Column_access { write = true };
      Sense_amp_write_back;
      Data_transfer (Bus.Write_data, "write data bus");
      Dq_interface { write = true };
      address_buses [ Bus.Column_address; Bus.Bank_address; Bus.Command ];
      Logic_blocks;
    |]
  | Nop ->
    (* One control-clock cycle of background: clock trunk and tree
       plus the always-on logic. *)
    [| Bus_events [ (Bus.Clock, "clock distribution") ]; Logic_blocks |]

let bus_contributions (cfg : Config.t) roles =
  List.concat_map
    (fun (role, label) ->
      match Config.bus cfg role with
      | None -> []
      | Some b -> [ Bus.event_contribution cfg.Config.tech cfg.Config.domains b ~label ])
    roles

let eval_step x kind = function
  | Wordline_activate ->
    Wordline.activate x.c_p x.c_d ~geometry:x.c_g ~page_bits:x.c_page
  | Wordline_precharge ->
    Wordline.precharge x.c_p x.c_d ~geometry:x.c_g ~page_bits:x.c_page
  | Sense_amp_activate ->
    Sense_amp.activate x.c_p x.c_d ~geometry:x.c_g ~page_bits:x.c_page
  | Sense_amp_precharge ->
    Sense_amp.precharge x.c_p x.c_d ~geometry:x.c_g ~page_bits:x.c_page
  | Sense_amp_write_back ->
    Sense_amp.write_back x.c_p x.c_d ~bits:x.c_bits
      ~toggle:x.c_cfg.Config.data_toggle
  | Column_access { write } ->
    Column.access x.c_p x.c_d ~geometry:x.c_g ~bits:x.c_bits ~write
  | Bus_events roles -> bus_contributions x.c_cfg roles
  | Data_transfer (role, label) ->
    (match Config.bus x.c_cfg role with
     | None -> []
     | Some b -> [ Bus.transfer_contribution x.c_p x.c_d b ~label ~bits:x.c_bits ])
  | Dq_interface { write } ->
    let cfg = x.c_cfg in
    Interface.dq x.c_d ~toggle:cfg.Config.data_toggle
      ~receiver_cap:cfg.Config.io_receiver_cap
      ~predriver_cap:cfg.Config.io_predriver_cap ~bits:x.c_bits ~write
  | Logic_blocks -> logic_contributions x kind

let plans = Array.init n (fun i -> steps_of (of_index i))
let plan_groups = Array.map (Array.map step_group) plans
let plan_indices_tbl = Array.map (Array.map C.group_index) plan_groups

let plan_masks =
  Array.map
    (Array.fold_left (fun m g -> m lor (1 lsl C.group_index g)) 0)
    plan_groups

(* Shared static arrays: callers must treat them as read-only. *)
let steps kind = plans.(index kind)
let plan kind = plan_groups.(index kind)
let plan_indices kind = plan_indices_tbl.(index kind)
let plan_mask kind = plan_masks.(index kind)
let chunk x kind j = eval_step x kind plans.(index kind).(j)

let segments ?activated_bits (cfg : Config.t) kind :
    (C.group * (unit -> C.t list)) list =
  let x = ctx ?activated_bits cfg in
  Array.to_list
    (Array.map (fun st -> (step_group st, fun () -> eval_step x kind st))
       plans.(index kind))

let contributions ?activated_bits (cfg : Config.t) kind =
  List.concat_map
    (fun (_, chunk) -> chunk ())
    (segments ?activated_bits cfg kind)

let energy_internal cfg kind =
  List.fold_left
    (fun acc (c : C.t) -> acc +. c.C.energy)
    0.0 (contributions cfg kind)

let energy cfg kind =
  C.total_at_vdd cfg.Config.domains (contributions cfg kind)
