(* A fingerprint is the 16-byte MD5 of the value's marshalled bytes. *)

type t = string

let of_value v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])
let hex = Digest.to_hex

(* Benchmark shim; see fingerprint.mli. *)
let combine = function
  | [] -> invalid_arg "Fingerprint.combine: empty list"
  | [ fp ] -> fp
  | fps -> Digest.string (String.concat "" fps)
