(** The DQ interface charge model: the Interface circuit group. *)

val dq :
  Domains.t ->
  toggle:float ->
  receiver_cap:float ->
  predriver_cap:float ->
  bits:int ->
  write:bool ->
  Contribution.t list
(** The DQ receivers (writes) or pre-drivers (reads) switching [bits]
    transported bits at the data toggle rate, from Vdd.  [receiver_cap]
    and [predriver_cap] are the per-bit loads. *)
