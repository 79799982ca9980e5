(** Pruning forensics over a flight recording ({!Telemetry.Recorder}).

    Reconstructs the search tree from the recorded event stream —
    decisions open nodes, backjumps and prunes close subtrees — and
    answers the post-mortem questions the live counters cannot: which
    lower-bound procedure closed which parts of the tree (by depth
    band), how much exploration each closed subtree had swallowed, where
    the LB/UB gap stalled and what the search was doing meanwhile, and
    why one particular node went away.

    Pure functions from a parsed recording, so everything is
    unit-testable.  A stitched portfolio recording is analyzed per
    member [Section]. *)

type blame_row = {
  b_blame : string;
      (** an LB procedure name, ["path"], ["conflict"] (logical-conflict
          backjumps) or ["open"] (never closed before the file ended) *)
  b_by_band : int array;  (** closed decisions per depth band *)
  b_total : int;  (** sum over bands *)
  b_prunes : int;  (** closing events of this blame (0 for synthetics) *)
  b_wasted : int;  (** nodes explored inside the subtrees it closed *)
}

type stall = {
  st_from_us : int;
  st_to_us : int;
  st_decisions : int;
  st_conflicts : int;  (** backjump events during the stall *)
  st_prunes : int;
  st_lb_evals : int;
}

type analysis = {
  a_member : string option;  (** section name in a stitched recording *)
  a_events : int;
  a_decisions : int;  (** nodes opened by a decision *)
  a_prune_events : int;  (** bound-conflict prunes (each also a node) *)
  a_accounted : int;  (** decisions closed or open + prune events *)
  a_fin : (string * int) option;  (** recorded final status and node count *)
  a_max_depth : int;
  a_band : int;  (** depth-band width used by [b_by_band] *)
  a_bands : int;
  a_blame : blame_row list;  (** sorted by [b_total], descending *)
  a_incumbents : (int * int) list;  (** (t_us, cost), improvements only *)
  a_imports : (int * int * string) list;  (** (t_us, cost, member) *)
  a_root_lb : (int * int) list;  (** (t_us, bound) root-level raises *)
  a_stalls : stall list;  (** longest no-movement intervals, longest first *)
}

val analyze : Telemetry.Recorder.recording -> analysis list
(** One analysis per member section (a single-engine recording yields
    one with [a_member = None]).  The invariant behind [a_accounted]:
    every decision is closed by exactly one later backjump/prune or
    stays open, so blame totals + prune events = decisions + prunes =
    the engine's node count. *)

type node_fate = {
  n_index : int;  (** 1-based index among the recording's decisions *)
  n_t_us : int;
  n_level : int;
  n_lit : string;  (** OPB-style literal, e.g. [~x3] *)
  n_path : (int * string) list;  (** (level, literal) from the root, incl. self *)
  n_closed_by : string option;
      (** JSON rendering ({!Telemetry.Recorder.to_json}) of the event that
          removed it; [None] = still open *)
  n_subtree : int;  (** decisions opened below it before it closed *)
}

val node_fate : Telemetry.Recorder.recording -> int -> (node_fate, string) result
(** [node_fate rc n] explains the [n]-th decision (1-based, in file
    order, sections included): the path that led to it and the exact
    event that closed its subtree.  [Error] when the recording has
    fewer than [n] decisions. *)

val render : analysis list -> string list
val render_node_fate : node_fate -> string list
