(** Request/response schema of the serve protocol.

    One request per line, one JSON object per frame; see
    [doc/SERVE.md] for the wire-level description.  This module is
    pure: it decodes frames into typed requests, resolves the embedded
    configuration/pattern the same way the one-shot CLI does (that
    equivalence is what makes serve responses bit-identical to CLI
    output), and fingerprints the work a request describes so the
    server can coalesce identical in-flight requests. *)

(** How a request names the device: an inline [.dram] source, or the
    commodity-device knobs of the CLI ([--node], [--density-mbits],
    [--io-width], [--datarate]). *)
type config_spec = {
  source : string option;        (** inline description-language text *)
  node : string option;          (** e.g. ["65nm"]; default 65 nm *)
  density_mbits : float option;
  io_width : int option;
  datarate : string option;      (** e.g. ["1.6Gbps"] *)
}

type kind =
  | Ping
  | Stats
  | Eval of { spec : config_spec; pattern : string option }
      (** the [vdram power] report *)
  | Sensitivity of {
      spec : config_spec;
      pattern : string option;
      top : int;
      variation : float option;
    }
  | Corners of {
      spec : config_spec;
      pattern : string option;
      samples : int;
      spread : float;
    }
  | Sweep of {
      spec : config_spec;
      pattern : string option;
      lens : string;
      factors : float list;  (** multiplicative factors of nominal *)
    }

type request = {
  id : Json.t;
      (** echoed verbatim on every response frame; [Null] if absent *)
  kind : kind;
  deadline : float option;
      (** per-item seconds, routed into the supervision policy *)
}

val decode : Json.t -> (request, Json.t * string) result
(** Decode one frame.  [Error (id, message)] carries whatever [id] the
    frame did contain so the rejection can still be correlated. *)

val work_key : request -> string option
(** Fingerprint of the work the request describes — everything except
    [id] — or [None] for [Ping]/[Stats] (never coalesced).  Two
    in-flight requests with equal keys may share one computation. *)

val parse_datarate : string option -> (float option, string) result
(** A per-pin data rate such as ["1.6Gbps"], in bit/s.  An unparseable
    rate is an error, never the node's default.  The CLI's
    [--datarate] goes through this too. *)

val resolve_config :
  config_spec ->
  (Vdram_core.Config.t * Vdram_core.Pattern.t option, string) result
(** Build the device exactly as the CLI's config loading does: inline
    [source] through the DSL elaborator (yielding its stored pattern,
    if any), otherwise the commodity device at the requested node.  A
    bad node or data rate is an error. *)

val resolve_pattern :
  Vdram_core.Config.t ->
  Vdram_core.Pattern.t option ->
  string option ->
  (Vdram_core.Pattern.t, string) result
(** CLI pattern precedence: an explicit loop string, else the
    description's stored pattern, else the Idd7-like mixed default. *)
