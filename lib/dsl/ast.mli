(** Abstract syntax of the DRAM description language.

    The language is line oriented.  A bare capitalised word starts a
    section ([FloorplanPhysical], [Technology], ...); every other
    non-empty line is a statement: a keyword followed by [key=value]
    assignments and/or bare positional tokens.  [#] and [//] start
    comments.  Two statement forms get special treatment by the
    parser: [<axis> blocks = n1 n2 ...] and [Pattern loop= cmd ...],
    whose tails are positional lists.

    Every token carries a {!Vdram_diagnostics.Span.t} recording where
    in the source it came from, so later analysis passes can point
    diagnostics at the exact file/line/column range. *)

type stmt = {
  line : int;                        (** 1-based source line *)
  keyword : string;
  keyword_span : Vdram_diagnostics.Span.t;
  args : (string * string) list;     (** [key=value] assignments, in order *)
  arg_spans : (string * Vdram_diagnostics.Span.t) list;
      (** span of each whole [key=value] token, same order as [args] *)
  positional : string list;          (** bare tokens after the keyword *)
  positional_spans : Vdram_diagnostics.Span.t list;
      (** spans of the positional tokens, same order *)
}

type section = {
  section_line : int;
  section_name : string;
  section_span : Vdram_diagnostics.Span.t;
  stmts : stmt list;
}

type t = section list

val arg : stmt -> string -> string option
(** Case-insensitive lookup of an assignment. *)

val arg_span : stmt -> string -> Vdram_diagnostics.Span.t option
(** Case-insensitive lookup of an assignment's source span. *)

val find_sections : t -> string -> section list
(** All sections with a name, case-insensitive. *)

val pp : Format.formatter -> t -> unit
