(* Signaling buses: wire segments with optional buffers. *)

[@@@physics Bus]

module P = Vdram_tech.Params
module D = Vdram_tech.Devices

type segment = {
  name : string;
  length : float;
  buffer : (float * float) option;
  mux : int option;
  toggle : float;
}

let segment ?buffer ?mux ?(toggle = 1.0) ~name ~length () =
  if length < 0.0 then invalid_arg "Bus.segment: negative length";
  { name; length; buffer; mux; toggle }

type role =
  | Write_data
  | Read_data
  | Row_address
  | Column_address
  | Bank_address
  | Command
  | Clock

let role_name = function
  | Write_data -> "write data"
  | Read_data -> "read data"
  | Row_address -> "row address"
  | Column_address -> "column address"
  | Bank_address -> "bank address"
  | Command -> "command"
  | Clock -> "clock"

type t = {
  name : string;
  role : role;
  wires : int;
  segments : segment list;
}

let v ~name ~role ~wires segments =
  if wires <= 0 then invalid_arg "Bus.v: wires must be positive";
  { name; role; wires; segments }

let segment_capacitance (p : P.t) s =
  let wire = p.c_wire_signal *. s.length in
  let buffer =
    match s.buffer with
    | None -> 0.0
    | Some (wn, wp) ->
      D.device_cap p D.Logic ~w:wn ~l:p.lmin_logic
      +. D.device_cap p D.Logic ~w:wp ~l:p.lmin_logic
  in
  wire +. buffer
[@@physics]

let energy_per_bit (p : P.t) (d : Domains.t) t =
  List.fold_left
    (fun acc s ->
      acc
      +. s.toggle
         *. Contribution.event ~cap:(segment_capacitance p s)
              ~voltage:d.vint)
    0.0 t.segments
[@@physics]

let energy_per_event (p : P.t) (d : Domains.t) t =
  float_of_int t.wires *. energy_per_bit p d t
[@@physics]

(* One event of every wire of the bus, as the contribution [label]. *)
let event_contribution (p : P.t) (d : Domains.t) t ~label =
  Contribution.v ~label ~domain:Domains.Vint ~energy:(energy_per_event p d t)
[@@physics]

(* Internal data buses are precharged dual-rail: one event per
   transported bit independent of the data pattern. *)
let transfer_contribution (p : P.t) (d : Domains.t) t ~label ~bits =
  Contribution.v ~label ~domain:Domains.Vint
    ~energy:(float_of_int bits *. energy_per_bit p d t)
[@@physics]

let total_length t =
  List.fold_left (fun acc s -> acc +. s.length) 0.0 t.segments
