(** Derived analyses over the observability artifacts.

    Consumes the [--json] run reports, [--record] flight recordings and
    the span and heartbeat files written by the solvers (see
    [docs/OBSERVABILITY.md]), and produces the derived views behind
    [bsolo inspect]: per-procedure effectiveness, incumbent timeline,
    search-tree shape, report diffs and recording summaries.  Pure
    functions from parsed data so everything is unit-testable. *)

module Json = Telemetry.Json

(** {1 Loading} *)

val load_file : string -> (Json.t, string) result

val load_trace : string -> (Json.t list * int, string) result
(** A [--heartbeat] JSONL file: its lines plus the number of unparseable
    lines skipped — a file cut short by a signal or timeout loses at
    most its partial tail, not the whole file. *)

(** {1 Report accessors} *)

val schema_of : Json.t -> string option
val counter : Json.t -> string -> int
(** Missing counters read as 0. *)

val phase : Json.t -> string -> float
val elapsed : Json.t -> float

type hist_stats = {
  h_total : int;
  h_mean : float;
  h_max : int;
}

val histogram_stats : Json.t -> string -> hist_stats option

val incumbent_points : Json.t -> (float * int) list
(** The report's [incumbents] as [(t, cost)] pairs, oldest first. *)

(** {1 Per-procedure effectiveness (paper Table 1's question)} *)

type proc_row = {
  proc : string;
  calls : int;
  time_s : float;
  time_share : float;
  mean_tightness_pm : float;
  bound_conflicts : int;
  mean_backjump : float;
  pruning_credit : int;  (** total levels undone by its bound conflicts *)
}

val effectiveness : Json.t -> proc_row list
(** One row per LB procedure that left instruments in the report, plus a
    ["path"] pseudo-row when path-cost-only bound conflicts fired. *)

val render_effectiveness : proc_row list -> string list

(** {1 Incumbent timeline} *)

val render_timeline : ?max_lines:int -> (float * int) list -> string list
(** The incumbent trajectory ({!incumbent_points}) as a [t / cost]
    table, thinned to about [max_lines] rows (default 32; the last point
    is always kept). *)

(** {1 Search-tree shape} *)

val render_tree_shape : Json.t -> string list

val render_bcp : Json.t -> string list
(** Propagation-engine summary from a run report: the [bcp.*]
    micro-counters and the watched / watch-all constraint population.
    A report of an older build renders too; its propagation-mode option
    and counting-mode census are ignored. *)

val render_cuts : Json.t -> string list
(** Cut-pool table from a run report: per-family
    separated/applied/evicted counts and tight-rate (share of applied
    cuts that were ever tight at an LP optimum) from the [cuts.*]
    counters, plus the [presolve.*] reduction summary. *)

(** {1 Report diff} *)

type diff_entry = {
  key : string;
  base : float;
  cand : float;
  ratio : float;
  regression : bool;
}

val diff : threshold:float -> Json.t -> Json.t -> diff_entry list
(** Compare two run reports; flags counter/time increases beyond
    [1 + threshold] (above small noise floors). *)

val render_diff : ?all:bool -> diff_entry list -> string list
val has_regression : diff_entry list -> bool

(** {1 Recording summary} *)

val trace_summary : Telemetry.Recorder.recording -> string list
(** Summary of a flight recording ({!Telemetry.Recorder.read_file}):
    the event count and time span (noting a dropped torn last line), a
    tally per ["ev"] name, and the incumbent trajectory (time and cost). *)

(** {1 Span-file validation} *)

val load_spans : string -> (Json.t list, string) result
(** Parse a Chrome trace-event JSON array; a file truncated by a signal
    (missing the closing bracket, possibly with a torn tail line) is
    repaired before parsing. *)

type span_stats = {
  sp_events : int;
  sp_tracks : int;
  sp_max_depth : int;
  sp_last_ts : float;  (** microseconds *)
  sp_run_id : string option;
  sp_dropped : int;
      (** X events the writer dropped at its event cap (the
          [bsolo_dropped_events] meta); a non-zero count means some spans
          are missing and the summary says so *)
}

val validate_spans : Json.t list -> (span_stats, string list) result
(** Checks exactly one [bsolo_run] header (schema [bsolo-spans/2] +
    shared epoch), that every event is an [M] or an [X] with a
    non-negative [ts] and [dur], and that per track the X intervals are
    laminar: any two nested or disjoint, within 1 µs.  [Error] lists
    every violation found. *)

val render_span_stats : span_stats -> string list

(** {1 Heartbeat view} *)

val render_snapshot : Telemetry.Snapshot.snap -> string list

val heartbeat_view : Json.t list -> string list
(** Terminal status view over the parsed lines of a heartbeat JSONL
    file: header, latest snapshot's member table and the best-gap
    trend. *)

val heartbeat_check : Json.t list -> (string list, string list) result
(** Structural checks for the smoke suite: header present, at least two
    snapshots, an end record, strictly increasing sequence numbers and
    per-member gaps that never widen.  [Ok] carries a one-line
    summary. *)

(** {1 Pruning forensics over flight recordings} *)

module Forensics : module type of Forensics
