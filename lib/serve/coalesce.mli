(** Single-flight request coalescing.

    An in-flight table keyed by work fingerprint: the first caller of
    a key becomes the {e leader} and runs the computation; callers
    arriving while it is still running become {e followers} and block
    until the leader publishes, then share its result (or re-raise its
    exception).  The entry is removed on publication, so a key that
    arrives after completion computes afresh — coalescing is about
    concurrent duplicates, not caching. *)

type 'a t

val create : unit -> 'a t

val run : 'a t -> key:string -> (unit -> 'a) -> [ `Led of 'a | `Shared of 'a ]
(** Join or lead the computation for [key].  [`Led v] — this caller
    ran [f]; [`Shared v] — another in-flight caller's result was
    shared.  If the leader's [f] raises, every caller of that flight
    (leader and followers alike) re-raises the same exception.

    Followers increment the shared counter {e before} blocking, so a
    leader can observe how many callers have joined its flight while
    it is still computing (the deterministic coalescing tests hang off
    this ordering). *)

val counters : 'a t -> int * int
(** [(led, shared)] — computations led and results shared since
    {!create}. *)
