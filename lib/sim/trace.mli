(** Memory request traces and synthetic workload generators.

    Generators use a deterministic linear-congruential engine so runs
    are reproducible without any global random state. *)

type request = {
  arrival : int;      (** controller cycle of arrival *)
  bank : int;
  row : int;
  column : int;       (** column-command granularity index *)
  is_write : bool;
}

type t = request list

val address_of :
  banks:int -> rows:int -> columns:int -> int64 -> int * int * int
(** Map a linear address to (bank, row, column) with bank bits in the
    low column bits (bank interleaving). *)

type rng

val rng : int -> rng
(** Seeded generator. *)

val uniform :
  rng:rng -> requests:int -> arrival_gap:int -> banks:int -> rows:int ->
  columns:int -> write_fraction:float -> t
(** Uniformly random addresses — the row-miss-heavy worst case. *)

val streaming :
  requests:int -> arrival_gap:int -> banks:int -> rows:int ->
  columns:int -> write_fraction:float -> t
(** Sequential addresses — the row-hit-friendly best case. *)

val hotspot :
  rng:rng -> requests:int -> arrival_gap:int -> banks:int -> rows:int ->
  columns:int -> write_fraction:float -> hot_rows:int -> hot_fraction:float ->
  t
(** A fraction of accesses hit a small set of rows (server-cache
    style locality). *)

val idle_gaps :
  rng:rng -> t -> burst:int -> gap:int -> t
(** Re-time a trace into bursts of [burst] requests separated by idle
    gaps of [gap] cycles — the pattern that makes power-down policies
    interesting. *)

val save : string -> t -> unit
(** Write a trace as text, one request per line:
    [<arrival> <R|W> <bank> <row> <column>].  Lines starting with [#]
    are comments. *)

val load : string -> (t, string) result
(** Parse a trace file in the {!save} format; the error names the
    offending line. *)
