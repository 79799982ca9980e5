(** Search-tree flight recorder: the complete search as JSON lines
    (schema ["bsolo-trace/2"]).

    A recording starts with a header line, then carries one line per
    event — a decision with the chosen literal, a conflict backjump, a
    lower-bound evaluation with its procedure / value / elapsed time /
    pruning outcome, a bound-conflict prune with blame, a learned
    constraint, an incumbent, a portfolio import, a restart — each
    [{"t":..,"ev":..,<fields>}], stamped to the microsecond on the
    shared {!Epoch}.  The header repeats the [run_id] the run's other
    artifacts (report, spans, heartbeats, proof) carry, so a recording
    correlates with all of them.

    Two file modes: direct streaming (every event lands in the file,
    flushed every 64 events), and a bounded ring ([?ring]) that keeps
    only the most recent [n] rendered lines in memory and writes them
    out at {!close} — the mode used to leave a usable tail after
    crashes, timeouts and SIGTERM, at constant memory.  A dropped-prefix
    ring file carries a [gap] line with the drop count where the lost
    events were.

    The reader tolerates a torn last line (a run killed mid-write): all
    intact lines are returned and the recording is flagged truncated.

    Domain-safety: the writer is mutex-guarded. *)

type header = {
  h_run_id : string;
  h_engine : string;  (** "bsolo", "pbs", "galena", "milp", "portfolio" *)
  h_lb_method : string;  (** lower-case lower-bound procedure name *)
  h_started : float;  (** absolute [Unix.gettimeofday] at run start *)
  h_nvars : int;
  h_nconstraints : int;
  h_flags : int;  (** option bitmask; see {!Bsolo.Replay.flags_of_options} *)
  h_lgr_iters : int;
}

type event =
  | Section of string  (** member boundary in a stitched portfolio recording *)
  | Decision of { level : int; var : int; value : bool }
  | Backjump of { from_level : int; to_level : int }
      (** logical-conflict backjump (bound conflicts are [Prune]) *)
  | Lb_eval of {
      proc : string;
      value : int;  (** the procedure's bound contribution (path excluded) *)
      path : int;
      upper : int;
      elapsed_us : int;
      pruned : bool;
    }
  | Prune of {
      blame : string;  (** LB procedure name, or ["path"] *)
      lb : int;
      path : int;
      upper : int;
      from_level : int;
      to_level : int;
    }
  | Learned of { size : int; level : int }
  | Incumbent of { cost : int }  (** offset included *)
  | Import of { cost : int; member : string }
  | Restart
  | Gap of { dropped : int }  (** ring truncation point *)
  | Fin of { status : string; nodes : int; decisions : int; conflicts : int }

val schema : string
(** ["bsolo-trace/2"], the header line's ["schema"] field. *)

(** {1 Writer} *)

type t

val disabled : unit -> t
(** Inert recorder: every emit is a single branch. *)

val enabled : t -> bool

val open_file : ?ring:int -> string -> header -> t
(** Create [file] and write the header line:
    [{"t":..,"ev":"header","schema":"bsolo-trace/2"}] followed by the
    header's fields ([run_id], [engine], [lb_method], [started],
    [nvars], [nconstraints], [flags], [lgr_iters]).  With [?ring n]
    (n > 0), the rendered event lines are kept in an [n]-slot ring
    buffer instead and the file content (header, optional [gap] line,
    retained events) is written at {!close}.  Raises [Sys_error] if the
    file cannot be created. *)

val observer : (int -> event -> unit) -> t
(** Recorder that hands each [(t_us, event)] to a callback instead of a
    file — the replay cross-checker's hook. *)

val memory : unit -> t
(** Collecting recorder for tests; read back with {!collected}. *)

val collected : t -> (int * event) list
(** Events collected by a {!memory} recorder, in emission order. *)

val emit : t -> event -> unit
(** Stamp [event] with the current epoch time and record it. *)

(* Typed emitters: free when the recorder is disabled (the event is not
   even constructed). *)

val decision : t -> level:int -> var:int -> value:bool -> unit
val backjump : t -> from_level:int -> to_level:int -> unit

val lb_eval :
  t -> proc:string -> value:int -> path:int -> upper:int -> elapsed_us:int -> pruned:bool -> unit

val prune :
  t -> blame:string -> lb:int -> path:int -> upper:int -> from_level:int -> to_level:int -> unit

val learned : t -> size:int -> level:int -> unit
val incumbent : t -> cost:int -> unit
val import : t -> cost:int -> member:string -> unit
val restart : t -> unit
val fin : t -> status:string -> nodes:int -> decisions:int -> conflicts:int -> unit

val events_written : t -> int
(** Events emitted so far (including any later dropped by the ring). *)

val ring_dropped : t -> int
(** Events pushed out of the ring so far (0 in direct mode). *)

val close : t -> unit
(** Flush and close; in ring mode, write the retained tail. Idempotent. *)

(** {1 Reader} *)

type recording = {
  r_header : header;
  r_events : (int * event) list;  (** (t_us, event), file order *)
  r_truncated : bool;  (** a torn last line was dropped *)
}

val read_file : string -> (recording, string) result
(** Decode a recording a line at a time: [t_us] is [round(t * 1e6)],
    unknown ["ev"] names and unknown fields are skipped, and a torn last
    line is dropped and flags the recording truncated.  [Error] for
    unreadable files, a file whose first line is not a
    ["bsolo-trace/2"] header (an empty file included), and a corrupt
    line before the last. *)

val stitch : string -> header -> (string * string) list -> (unit, string) result
(** [stitch base header parts] writes a combined recording: the header,
    then for each [(member, part_file)] a [section] line followed by the
    part's events.  Unreadable parts are skipped (a crashed member must
    not invalidate the others); part files are left in place. *)

(** {1 Rendering} *)

val event_name : event -> string
(** The ["ev"] value: [decision], [prune], ... — the tag names of the
    format description. *)

val to_json : event -> Json.t
(** The one JSON rendering of an event, [{"ev":..,<fields>}]: a file
    line is this object with ["t"] in front; replay mismatch reports
    and the forensics drill-down print it as is. *)
