(** Prometheus text exposition (format 0.0.4) over a {!Registry}.

    Counters, gauges and histograms render with sanitized, namespaced
    names ([search.nodes] → [bsolo_search_nodes]), each with [# HELP]
    and [# TYPE] lines and escaped label values, so the output passes
    {!lint}; histograms export their power-of-two buckets as a standard
    cumulative [le] series.

    Two consumers share the renderer: {!write_file} for the
    node_exporter textfile collector (renames a temp file into place so
    readers never see a partial exposition), and the embedded
    observability server's [GET /metrics] endpoint — both render the
    same sources, so the HTTP body is byte-identical to the file. *)

val sanitize : string -> string
(** Map to the exposition name grammar [[a-zA-Z_][a-zA-Z0-9_]*]: every
    character outside [[a-zA-Z0-9_]] becomes [_], and a leading digit
    gains an [_] prefix. *)

val escape_label_value : string -> string
(** Escape backslash, double quote and newline for use inside a quoted
    label value. *)

val render : ?namespace:string -> Registry.t -> string
(** Full exposition text; [namespace] defaults to ["bsolo"]. *)

val render_sources : ?namespace:string -> (string * Registry.t) list -> string
(** Render several registries into one exposition; each instrument name
    is prefixed with its source's prefix before sanitizing, so a live
    portfolio member's registry under prefix ["portfolio.bsolo-lpr."]
    exports the same metric names its post-join merge will. *)

val write_file : string -> string -> unit
(** [write_file path text] atomically replaces [path] with a rendered
    exposition.  Raises [Sys_error] when [path] cannot be written. *)

(** {1 Exposition lint}

    In-repo validator for the text exposition format, used by the test
    and smoke suites over both the textfile and [GET /metrics] paths. *)

val lint : string -> (int, string list) result
(** Check an exposition body: line grammar, metric and label name
    validity, escape sequences, TYPE lines (valid kind, at most one per
    metric, before that metric's samples) and histogram structure
    (cumulative non-decreasing [le] buckets, a [+Inf] bucket equal to
    [_count]).  [Ok n] is the number of samples checked; [Error] lists
    every violation with its line number. *)

val lint_file : string -> (int, string list) result
