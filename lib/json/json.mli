(** Minimal JSON: the program's only JSON code.

    Every JSON document vdram reads or writes goes through this
    module: the serve protocol's frames, the lint/check/advise
    reports, SARIF logs, [check --certify] certificates and the
    [--fail-log] failure report.  It is a recursive-descent parser
    with a depth limit (a hostile frame cannot blow the stack) and a
    compact single-line printer (never emits a newline, so a printed
    value is always exactly one serve frame or one JSONL record).  No
    dependency beyond the stdlib, so any library can use it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : ?max_depth:int -> string -> (t, string) result
(** Parse one complete JSON value; trailing garbage after the value is
    an error.  [max_depth] (default 64) bounds nesting.  Strings
    decode the standard escapes including [\uXXXX] (surrogate pairs
    re-encoded as UTF-8). *)

val to_string : t -> string
(** Compact rendering on a single line.  Integral floats print without
    a fractional part, other floats in the shorter of [%.15g] and
    [%.17g] that parses back to the same double; non-finite numbers
    print as [null] (JSON has no spelling for them). *)

(** {1 Accessors}

    All return [None] on a type mismatch — protocol decoding treats a
    wrongly-typed field exactly like a missing one. *)

val mem : string -> t -> t option
(** Object member lookup; [None] on non-objects. *)

val str : t -> string option
val num : t -> float option

val int_ : t -> int option
(** [num] that also requires the value to be integral. *)

val bool_ : t -> bool option
val list_ : t -> t list option
val obj : t -> (string * t) list option
