(** Deterministic, seeded fault injection for the engine runtime.

    A fault {e plan} — parsed from the [VDRAM_FAULTS] environment
    variable or built in tests — decides, purely from [(seed, batch,
    index)], which items of a supervised batch misbehave and how.
    The decision is a hash, not a stateful generator, so it is
    independent of evaluation order: the same plan faults the same
    items at any job count, which is what lets CI assert an exact
    failure report.

    Grammar (comma- or semicolon-separated [key=value] clauses):

    {v
    seed=N            hash seed (default 0)
    rate=F            fraction of items faulted, 0..1 (default 0.01)
    raise=STAGE       raise inside that stage: geometry|extraction|mix
    stall=SECONDS     sleep that long inside the mix stage instead
    v}

    Example: [VDRAM_FAULTS="seed=7,rate=0.01,raise=mix"].

    Any other clause is an error that names it; that includes the
    retired [corrupt=store], since the engine keeps no persistent
    store.

    [raise] and [stall] fire only for items evaluated under
    {!Supervise.map} (the supervised runtime establishes the item
    context).  The engine caches no stage output, so the [geometry],
    [extraction] and [mix] hooks fire on every item that runs those
    stages: an {!Engine.eval} item passes all three. *)

type stage = Geometry | Extraction | Mix

val stage_name : stage -> string
val stage_of_name : string -> stage option

type action =
  | Raise of stage           (** raise {!Injected} inside the stage *)
  | Stall of stage * float   (** sleep this many seconds inside it *)

type plan = { seed : int; rate : float; action : action option }

val none : plan
(** The inert plan: faults nothing.  Pass it to
    supervised code to ignore [VDRAM_FAULTS] deliberately. *)

exception Injected of string * int * int
(** [Injected (stage, batch, index)] — the exception a [raise] fault
    throws.  The supervised runtime classifies it as an injected
    failure rather than a model bug. *)

val parse : string -> (plan, string) result
(** Parse the [VDRAM_FAULTS] grammar.  [Error] explains the first bad
    clause. *)

val of_env : unit -> (plan option, string) result
(** The plan from [VDRAM_FAULTS]; [Ok None] when unset or empty. *)

val to_string : plan -> string
(** Round-trippable rendering of a plan (fail-log provenance). *)

val faulted : plan -> batch:int -> index:int -> bool
(** Whether the plan faults this item — the pure hash decision tests
    use to predict the exact failure set. *)

(** {1 Injection points}

    These are called by the engine; user code never needs them
    directly. *)

val with_item :
  ?plan:plan -> batch:int -> index:int -> (unit -> 'a) -> 'a
(** Establish the supervised item context (domain-local) around one
    item evaluation.  With a plan, stage hooks inside the call may
    fire; without one, the context still marks the item as supervised
    so stage errors are attributed (see {!Engine.Stage_error}). *)

val supervised : unit -> bool
(** Whether the current domain is inside {!with_item}. *)

val stage_hook : stage -> unit
(** Called at a stage entry: raises {!Injected} or stalls when the
    current item is faulted at this stage, otherwise free. *)
