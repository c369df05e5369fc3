(** Source spans: where in a description file a diagnostic points.

    Lines and columns are 1-based; a zero line means "unknown".  The
    column range is [col_start] inclusive to [col_end] exclusive, both
    zero when only the line is known. *)

type t = {
  file : string option;
  line : int;       (** 1-based; 0 when unknown *)
  col_start : int;  (** 1-based, inclusive; 0 when unknown *)
  col_end : int;    (** exclusive; 0 when unknown *)
}

val none : t
(** No location at all (configuration-level findings). *)

val is_none : t -> bool

val of_line : ?file:string -> int -> t
(** A whole source line. *)

val of_cols : ?file:string -> start:int -> stop:int -> int -> t
(** [of_cols ~start ~stop line] is a column range on [line], [start]
    inclusive to [stop] exclusive. *)

val compare : t -> t -> int
(** Source order: by file, line, then column; spanless sorts last. *)

val pp : Format.formatter -> t -> unit
(** ["file:12:5"], ["file:12"], ["line 12"] or [""] depending on what
    is known. *)
