(* Link termination power models. *)

module Node = Vdram_tech.Node

type scheme =
  | Unterminated of { c_load : float }
  | Sstl of { rtt : float; r_driver : float }
  | Pod of { rtt : float; r_driver : float }

let scheme_name = function
  | Unterminated _ -> "unterminated CMOS"
  | Sstl _ -> "SSTL"
  | Pod _ -> "POD"

type t = {
  scheme : scheme;
  vddq : float;
  trace_cap : float;
  toggle : float;
}

let v ?(trace_cap = 2.5e-12) ?(toggle = 0.5) ~scheme ~vddq () =
  if vddq <= 0.0 then invalid_arg "Termination.v: vddq must be positive";
  (match scheme with
   | Unterminated { c_load } ->
     if c_load < 0.0 then invalid_arg "Termination.v: negative load"
   | Sstl { rtt; r_driver } | Pod { rtt; r_driver } ->
     if rtt <= 0.0 || r_driver <= 0.0 then
       invalid_arg "Termination.v: resistances must be positive");
  { scheme; vddq; trace_cap; toggle }

let for_standard = function
  | Node.Sdr ->
    v ~scheme:(Unterminated { c_load = 12e-12 }) ~vddq:3.3 ~trace_cap:4e-12 ()
  | Node.Ddr ->
    v ~scheme:(Sstl { rtt = 50.0; r_driver = 25.0 }) ~vddq:2.5 ()
  | Node.Ddr2 ->
    v ~scheme:(Sstl { rtt = 75.0; r_driver = 18.0 }) ~vddq:1.8 ()
  | Node.Ddr3 ->
    v ~scheme:(Sstl { rtt = 60.0; r_driver = 34.0 }) ~vddq:1.5 ()
  | Node.Ddr4 ->
    v ~scheme:(Pod { rtt = 48.0; r_driver = 34.0 }) ~vddq:1.2 ()
  | Node.Ddr5 ->
    v ~scheme:(Pod { rtt = 48.0; r_driver = 34.0 }) ~vddq:1.1 ()

(* Switching component: the line and input loads charge and discharge
   with the data.  For terminated links the swing is the resistive
   divider's, not rail to rail. *)
let swing t =
  match t.scheme with
  | Unterminated _ -> t.vddq
  | Sstl { rtt; r_driver } | Pod { rtt; r_driver } ->
    t.vddq *. rtt /. (rtt +. r_driver)

let line_cap t =
  match t.scheme with
  | Unterminated { c_load } -> t.trace_cap +. c_load
  | Sstl _ | Pod _ -> t.trace_cap +. 1.5e-12 (* receiver pad *)

let active_power t ~bitrate =
  if bitrate < 0.0 then invalid_arg "Termination.active_power: bitrate";
  let sw = swing t in
  let switching =
    t.toggle *. line_cap t *. sw *. sw *. bitrate
  in
  let dc =
    match t.scheme with
    | Unterminated _ -> 0.0
    | Sstl { rtt; r_driver } ->
      (* Driven away from VTT in both states: (Vddq/2)^2 / (R) always
         while bursting. *)
      let r = rtt +. r_driver in
      t.vddq /. 2.0 *. (t.vddq /. 2.0) /. r
    | Pod { rtt; r_driver } ->
      (* Current flows only while driving low; random data: half the
         time. *)
      let r = rtt +. r_driver in
      0.5 *. (t.vddq *. t.vddq /. r)
  in
  switching +. dc

let energy_per_bit t ~bitrate =
  if bitrate <= 0.0 then invalid_arg "Termination.energy_per_bit: bitrate";
  active_power t ~bitrate /. bitrate

let pp ppf t =
  Format.fprintf ppf "%s at %.2f V (swing %.2f V, %.1f pF line)"
    (scheme_name t.scheme) t.vddq (swing t) (line_cap t *. 1e12)
