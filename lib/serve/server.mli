(** The [vdram serve] daemon: a persistent evaluation service over one
    hot engine.

    One long-running process holds a {!Vdram_engine.Engine} and answers
    eval / sensitivity / corners / sweep requests over line-delimited
    JSON on a Unix or TCP socket ([doc/SERVE.md] specifies the wire
    protocol).  The design constraints, in order:

    - {e fault isolation}: every request runs under its own
      {!Vdram_engine.Supervise} supervisor — a poisoned configuration,
      an injected fault or a deadline overrun becomes a structured
      error frame classified exactly like the batch CLI classifies
      failures; it never kills the daemon or other requests.
    - {e exactly one terminal frame} per accepted request — [ok],
      [error] or [aborted] — even across drain.
    - {e coalescing}: concurrent requests with equal work
      fingerprints share one computation ({!Coalesce}).
    - {e admission control}: at most [max_inflight] computations run
      at once; excess requests are rejected immediately with an
      [overloaded] error carrying [retry_after_ms] (ping and stats
      bypass admission).  The listen [backlog] bounds the accept
      queue; beyond [max_clients] connections are turned away.
    - {e bit identity}: the [text] of a clean response equals the
      stdout of the one-shot CLI for the same request ({!Render}).

    Responses are written by the connection's own thread (and, during
    drain, possibly by the drain thread) under a per-connection write
    mutex; worker parallelism comes from the engine's domain pool, not
    from the connection threads. *)

type listener =
  | Unix_path of string  (** Unix-domain stream socket at this path *)
  | Tcp of string * int  (** host/address and port; port 0 auto-picks *)

type config = {
  listener : listener;
  max_clients : int;      (** concurrent connections; excess refused *)
  max_inflight : int;     (** concurrent computations; excess overloaded *)
  max_frame_bytes : int;  (** longer request lines are bad frames *)
  backlog : int;          (** listen(2) accept-queue bound *)
  drain_grace : float;
      (** seconds drain waits for in-flight requests before
          force-aborting them *)
  retry_after_ms : int;   (** hint attached to [overloaded] rejections *)
}

val default_config : listener -> config
(** 64 clients, 8 in flight, 1 MiB frames, backlog 64, 5 s grace,
    200 ms retry hint. *)

type t

val create :
  ?faults:Vdram_engine.Faults.plan ->
  engine:Vdram_engine.Engine.t ->
  config ->
  (t, string) result
(** Bind the listener and prepare the daemon (SIGPIPE is ignored
    process-wide; a stale Unix socket left by a dead daemon is
    unlinked, a live one is an error).  [faults] overrides the
    [VDRAM_FAULTS] plan applied to every request's supervisor; when
    omitted the environment plan is resolved here, once — a malformed
    [VDRAM_FAULTS] fails startup instead of every request. *)

val serve : t -> unit
(** Accept and serve until {!drain}, then finish: stop accepting,
    wait up to [drain_grace] for in-flight requests, force an
    [aborted] terminal frame on any survivor, close and (for Unix
    sockets) unlink the listener.  Returns
    normally — the caller decides the exit code. *)

val drain : t -> unit
(** Flip the drain flag (signal-handler safe; idempotent).  {!serve}
    notices within its accept-poll interval. *)

val draining : t -> bool

val address : t -> Unix.sockaddr
(** The bound address — for [Tcp (_, 0)] this carries the actual
    port. *)

val stats_json : t -> Json.t
(** The same object a [stats] request returns: the engine's job count,
    request/coalescing/admission counters, failure classes, in-flight
    depth, drain flag, uptime. *)

val coalesce_counters : t -> int * int
(** [(led, shared)] — exposed for tests and the smoke driver. *)
