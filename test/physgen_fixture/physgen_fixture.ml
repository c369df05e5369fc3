(* A physics function the interval generator must refuse: [Float.min]
   takes two lifted fields out of the generated set.  The test suite
   runs tools/physgen on this module's typed tree and expects it to
   fail, naming the function and the construct. *)

let narrowest_sense_device (p : Vdram_tech.Params.t) = Float.min p.w_sa_n p.w_sa_p
[@@physics]
