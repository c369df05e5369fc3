(** SARIF 2.1.0 renderer.

    Renders lint reports in the Static Analysis Results Interchange
    Format so findings can be uploaded to code-scanning services.
    The output is a single SARIF log with one run: the tool driver
    lists one rule per distinct V-code (title and default severity
    from {!Code}), each diagnostic becomes a result with a physical
    location, and structured {!Fix} edits render as SARIF [fixes]
    with [deletedRegion] / [insertedContent] replacements. *)

val render : (string option * Diagnostic.t list) list -> string
(** [render reports] serializes per-file diagnostic lists (the file
    name, [None] for stdin, paired with its diagnostics) into one
    SARIF document. *)
