(** Content fingerprints: the MD5 digest of a plain-data value's
    marshalled bytes ([Marshal.No_sharing], so the bytes are a pure
    function of the structure).  Used to name a failed batch item in
    a {!Supervise} failure record and to key serve's request
    coalescing.

    Only marshal plain data: closure-free, immutable values. *)

type t

val of_value : 'a -> t
(** Fingerprint a (plain-data) value.  Structurally equal values yield
    equal fingerprints. *)

val hex : t -> string
(** The digest, hex-encoded. *)

val combine : t list -> t
(** Fingerprint of a composite key from its parts' fingerprints.
    Raises [Invalid_argument] on the empty list.  Only the benchmark
    calls it; it goes with the benchmark change that retires the
    [cache.*] and [store.*] layer metrics. *)
