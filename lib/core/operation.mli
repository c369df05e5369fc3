(** The five basic operations and their energy (Figure 4: "determine
    charge associated with activate, precharge, read and write"). *)

type kind = Activate | Precharge | Read | Write | Nop

val all : kind list
val name : kind -> string

val n : int
(** Number of operation kinds.  The staged extraction record and the
    pattern-mix kernel index dense arrays of this length by {!index}
    instead of walking [(kind * _)] assoc lists. *)

val index : kind -> int
(** Dense index in [Operation.all] order: Activate 0 .. Nop 4. *)

val of_index : int -> kind
(** Inverse of {!index}; raises [Invalid_argument] outside [0, n). *)

val segments :
  ?activated_bits:int ->
  Config.t ->
  kind ->
  (Vdram_circuits.Contribution.group * (unit -> Vdram_circuits.Contribution.t list))
  list
(** The operation's contribution list as lazily-forced per-circuit-group
    chunks, in concatenation order: forcing every chunk in sequence
    yields exactly {!contributions}.  The group sequence of an
    operation kind is static (it never depends on configuration
    values), which is what lets delta-extraction splice clean chunks
    from a base extraction positionally. *)

type ctx
(** The per-configuration prelude every chunk reads (technology,
    domains, geometry, resolved page and column bits), built once and
    shared across chunk evaluations of one configuration. *)

val ctx :
  ?activated_bits:int ->
  ?geometry:Vdram_floorplan.Array_geometry.t ->
  Config.t ->
  ctx
(** [activated_bits] and [geometry] let a caller that already resolved
    the floorplan (the staged engine's geometry stage, or the delta
    probe which compared geometries a moment earlier) feed the results
    in instead of re-deriving them. *)

val trigger_matches : Vdram_circuits.Logic_block.trigger -> kind -> bool
(** Whether a logic block with this trigger evaluates on one occurrence
    of the operation: [Always] blocks on [Nop] (every control-clock
    cycle), [On_operation] blocks on the listed commands. *)

val logic_labels : Vdram_circuits.Logic_block.t list -> string array
(** The breakdown label of each logic block, ["logic: " ^ name],
    memoized on the physical identity of the list. *)

type step =
  | Wordline_activate
  | Wordline_precharge
  | Sense_amp_activate
  | Sense_amp_precharge
  | Sense_amp_write_back
  | Column_access of { write : bool }
  | Bus_events of (Vdram_circuits.Bus.role * string) list
      (** one event of each present bus, with its label *)
  | Data_transfer of Vdram_circuits.Bus.role * string
      (** the column's bits over the data bus, if present *)
  | Dq_interface of { write : bool }
  | Logic_blocks  (** every block whose trigger matches the operation *)
(** One chunk of an operation's contribution list: which charge model
    produces it. *)

val steps : kind -> step array
(** The operation's static chunk plan as steps, in concatenation
    order.  The float evaluation and the interval evaluator
    ([Vdram_absint.Aeval]) both walk it.  Shared — treat it as
    read-only. *)

val plan : kind -> Vdram_circuits.Contribution.group array
(** The operation's static chunk plan: which circuit group produces
    chunk [j], in the same concatenation order as {!segments}.  The
    returned array is shared — treat it as read-only. *)

val plan_indices : kind -> int array
(** {!plan} with each group already mapped through
    [Contribution.group_index] — the delta splice loop compares these
    against stored segment groups position by position, so the variant
    dispatch is paid once at module initialization, not per chunk of
    every perturbed item.  Shared and read-only like {!plan}. *)

val plan_mask : kind -> int
(** Bitmask over [Contribution.group_index] of the groups appearing in
    {!plan} — lets a delta probe decide in one [land] whether any of an
    operation's chunks can be touched by a set of dirtied groups. *)

val chunk : ctx -> kind -> int -> Vdram_circuits.Contribution.t list
(** Evaluate chunk [j] of the operation's plan alone — what
    delta-extraction calls for just the dirtied positions, paying no
    list or closure construction for the clean ones.  Identical to
    forcing the [j]-th thunk of {!segments}. *)

val contributions :
  ?activated_bits:int -> Config.t -> kind -> Vdram_circuits.Contribution.t list
(** Every labelled charge/discharge bundle of one occurrence of the
    operation: array and row/column path events, bus transfers and
    triggered logic blocks.  [Nop] is the per-control-clock-cycle
    background (clock tree, always-on logic).  [activated_bits] lets a
    caller that already resolved the floorplan (the staged engine's
    geometry stage) feed the page size in instead of re-deriving it. *)

val energy : Config.t -> kind -> float
(** Energy drawn from the external supply per occurrence (generator
    efficiencies applied), joules. *)

val energy_internal : Config.t -> kind -> float
(** Energy dissipated internally per occurrence, before efficiency
    division. *)
