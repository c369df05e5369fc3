(** SI prefix handling and engineering-notation formatting.

    All physical values in vdram are plain [float]s in base SI units
    (metres, volts, farads, hertz, seconds, amperes, joules, watts).
    This module converts between those floats and human-readable
    engineering notation such as ["56.3 um"] or ["1.6 Gbps"]. *)

val prefixes : (string * float) list
(** Supported SI prefixes, largest first: [("G", 1e9); ...; ("a", 1e-18)].
    ["u"] is used for micro. *)

val multiplier : string -> float option
(** [multiplier p] is the scale factor of prefix [p], if known.
    The empty string maps to [1.0]. *)

val split_prefix : string -> (float * string) option
(** [split_prefix s] splits a unit string such as ["nm"] into its prefix
    multiplier and base unit: [Some (1e-9, "m")].  Returns the longest
    valid interpretation; an unprefixed base unit yields multiplier 1.
    Returns [None] for the empty string. *)

val format_eng : ?digits:int -> unit_symbol:string -> float -> string
(** [format_eng ~unit_symbol v] renders [v] with an automatically chosen
    SI prefix so the mantissa falls in [1, 1000), e.g.
    [format_eng ~unit_symbol:"F" 4.2e-14 = "42 fF"].  [digits] is the
    number of significant digits (default 4).  Zero renders as ["0 <u>"]. *)
