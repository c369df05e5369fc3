(* The DQ interface: internal load per transported bit. *)

[@@@physics Interface]

(* Output pre-drivers and level shifters for reads, receivers, latches
   and strobe distribution for writes, switched at the data toggle
   rate.  The Vddq output stage itself is excluded, as in the paper. *)
let dq (d : Domains.t) ~toggle ~receiver_cap ~predriver_cap ~bits ~write =
  let cap = if write then receiver_cap else predriver_cap in
  let label = if write then "DQ receivers" else "DQ pre-drivers" in
  [
    Contribution.v ~label ~domain:Domains.Vdd
      ~energy:
        (toggle *. Contribution.events ~count:(float_of_int bits) ~cap
                     ~voltage:d.vdd);
  ]
[@@physics]
