(** Batch evaluation engine: the Figure 4 pipeline run directly, item
    by item, with a domain pool for batches.

    A model run decomposes as

    {v config -> geometry -> extraction -> pattern mix -> report v}

    and every call runs each stage afresh: nothing is keyed, cached or
    persisted per item.  A batch of small perturbations of one
    configuration (a sensitivity sweep, a corners population, a
    scheme's transform) names that configuration as its [~base]; each
    item then re-extracts only the circuit groups its perturbation
    dirties ({!Vdram_core.Model.extract_delta}) and splices the rest
    from the base's extraction.  The engine holds exactly one base
    extraction, in a one-slot memo keyed on the base configuration's
    physical identity, so memory stays flat in the batch size.  See
    [doc/ENGINE.md] for the stage graph, the memo and the determinism
    contract. *)

type t

exception Stage_error of string * exn
(** A stage failure under supervision: the stage name ([geometry],
    [extraction] or [mix]) the exception escaped from, and the
    original exception.  Only raised while a {!Supervise} item context
    is active ({!Faults.supervised}); outside supervision stage
    exceptions propagate unwrapped. *)

type store
(** Inert handle kept only for the benchmark, which still compiles
    against the retired persistent store.  It holds nothing.  Remove
    it with the benchmark change that retires the [cache.*] and
    [store.*] layer metrics. *)

val create : ?jobs:int -> ?store:store -> unit -> t
(** A fresh engine.  [jobs] bounds the domain pool used by
    {!map_jobs}; it defaults to {!Pool.default_jobs} (which honours
    [VDRAM_JOBS]).  [store] is ignored (see {!type-store}). *)

val serial : unit -> t
(** [create ~jobs:1 ()] — the drop-in default the analysis drivers use
    when no engine is supplied. *)

val jobs : t -> int

val store_open : dir:string -> unit -> store
(** Benchmark shim: returns the inert {!type-store}; touches no file.
    Only the benchmark calls it; it goes with the benchmark change
    that retires the [cache.*] and [store.*] layer metrics. *)

val flush_store : t -> unit
(** Benchmark shim: does nothing.  Only the benchmark calls it; it
    goes with the benchmark change that retires the [cache.*] and
    [store.*] layer metrics. *)

(** {1 Stages} *)

type geometry = {
  geometry : Vdram_floorplan.Array_geometry.t;
  page_bits : int;
  activated_bits : int;
  die_area : float;          (** m^2 *)
  array_efficiency : float;  (** fraction of die that is cell array *)
}

val geometry : t -> Vdram_core.Config.t -> geometry
(** Geometry/floorplan stage. *)

val extraction :
  ?base:Vdram_core.Config.t ->
  t ->
  Vdram_core.Config.t ->
  Vdram_core.Model.extraction
(** Capacitance-extraction stage ({!Vdram_core.Model.extract}).
    Without [base] it runs the full extraction.  With [base] it runs
    {!Vdram_core.Model.extract_delta} against the base's extraction,
    which the engine's one-slot memo resolves: a hit when [base] is
    physically the configuration the memo holds, else one full
    extraction of [base] that then replaces the slot.  When [base] is
    the evaluated configuration itself, its memoized extraction is
    returned outright.  The result is bit-identical to the full
    extraction whichever path runs. *)

val eval :
  ?base:Vdram_core.Config.t ->
  t ->
  Vdram_core.Config.t ->
  Vdram_core.Pattern.t ->
  Vdram_core.Report.t
(** The full report: {!extraction} then the flat pattern-mix kernel
    ({!Vdram_core.Model.pattern_power_staged}).  Bit-identical to
    {!Vdram_core.Model.pattern_power} for every [base].  Evaluating
    several patterns on one configuration with [~base] set to that
    configuration extracts it once. *)

val power :
  ?base:Vdram_core.Config.t ->
  t -> Vdram_core.Config.t -> Vdram_core.Pattern.t -> float

val current :
  ?base:Vdram_core.Config.t ->
  t -> Vdram_core.Config.t -> Vdram_core.Pattern.t -> float

val energy_per_bit :
  ?base:Vdram_core.Config.t ->
  t -> Vdram_core.Config.t -> Vdram_core.Pattern.t -> float option

val op_energy :
  ?base:Vdram_core.Config.t ->
  t -> Vdram_core.Config.t -> Vdram_core.Operation.kind -> float
(** Per-occurrence supply energy of one operation, from the
    extraction ({!Vdram_core.Operation.energy} equivalent). *)

(** {1 Batch execution} *)

val map_jobs : t -> ('a -> 'b) -> 'a list -> 'b list
(** Evaluate a batch on the engine's domain pool ({!Pool.map} with the
    engine's [jobs]).  Results are returned in input order and are
    bit-identical to the serial [List.map] — see [doc/ENGINE.md]. *)

(** {1 Benchmark shim}

    The engine keeps no counters.  These types and {!stats} survive
    only because the benchmark still compiles against them; every
    count reads 0.  They go with the benchmark change that retires
    the [cache.*] and [store.*] layer metrics. *)

type stage_stats = { hits : int; misses : int }

type stats = { extraction_stats : stage_stats; mix_stats : stage_stats }

val stats : t -> stats
