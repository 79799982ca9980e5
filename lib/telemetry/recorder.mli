(** Search-tree flight recorder: a compact framed binary log of the
    complete search (schema ["bsolo-rec/1"]).

    A recording starts with the magic line, then a sequence of
    length-prefixed frames.  Each frame carries one event — a decision
    with the chosen literal, a conflict backjump, a lower-bound
    evaluation with its procedure / value / elapsed time / pruning
    outcome, a bound-conflict prune with blame, a learned constraint, an
    incumbent, a portfolio import, a restart — stamped in microseconds
    on the shared {!Epoch}.  The header frame repeats the [run_id] the
    run's other artifacts (report, trace, spans, heartbeats, proof)
    carry, so a recording correlates with all of them.

    Two file modes: direct streaming (every event lands in the file,
    autoflushed), and a bounded ring ([?ring]) that keeps only the most
    recent [n] events in memory and writes them out at {!close} — the
    mode used to leave a usable tail after crashes, timeouts and
    SIGTERM, at constant memory.  A dropped-prefix ring file carries a
    [Gap] frame with the drop count where the lost events were.

    The reader tolerates truncated tails (a run killed mid-write): all
    intact frames are returned and the recording is flagged truncated.

    The recorder is also the only producer of the [--trace] JSONL
    stream: {!tee} attaches a {!Trace} sink, and every event recorded
    from then on is written there too, rendered by {!to_json} with the
    same timestamp as its binary frame.

    Domain-safety: the writer is mutex-guarded, like the trace sink. *)

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
(** ["bsolo-rec/1"] — also the magic line content. *)

(** {1 Writer} *)

type t

val disabled : unit -> t
(** Inert recorder: every emit is a single branch. *)

val enabled : t -> bool

val open_file : ?ring:int -> string -> header -> t
(** Create [file] and write the magic + header frame.  With [?ring n]
    (n > 0), events are kept in an [n]-slot ring buffer instead and the
    file content (header, optional [Gap], retained events) is written at
    {!close}.  Raises [Sys_error] if the file cannot be created. *)

val observer : (int -> event -> unit) -> t
(** Recorder that hands each [(t_us, event)] to a callback instead of a
    file — the replay cross-checker's hook. *)

val memory : unit -> t
(** Collecting recorder for tests; read back with {!collected}. *)

val tee : t -> ?member:string -> Trace.t -> unit
(** [tee r ?member sink] also writes every later event of [r] to [sink]
    as one JSONL line, [{"t":..,"ev":..,"member":..,<fields>}]: the
    {!to_json} rendering, with ["member"] only when given (portfolio
    members).  A disabled recorder with a live sink becomes enabled.
    Call it before the first event. *)

val collected : t -> (int * event) list
(** Events collected by a {!memory} recorder, in emission order. *)

val emit : t -> event -> unit
(** Stamp [event] with the current epoch time and record it (binary
    target and JSONL sink alike). *)

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
  r_header : header option;  (** [None] when the file broke before the header *)
  r_events : (int * event) list;  (** (t_us, event), file order *)
  r_truncated : bool;  (** a torn trailing frame was dropped *)
}

val read_file : string -> (recording, string) result
(** Decode a recording, keeping every intact frame of a truncated file.
    [Error] only for unreadable files or a missing/foreign magic line. *)

val stitch : string -> header -> (string * string) list -> (unit, string) result
(** [stitch base header parts] writes a combined recording: the header,
    then for each [(member, part_file)] a [Section] frame followed by the
    part's events.  Unreadable parts are skipped (a crashed member must
    not invalidate the others); part files are left in place. *)

(** {1 Rendering} *)

val event_name : event -> string
(** The ["ev"] value: [decision], [prune], ... — the tag names of the
    format description. *)

val to_json : ?member:string -> ?t_us:int -> event -> Json.t
(** The one JSON rendering of an event:
    [{"t":..,"ev":..,"member":..,<fields>}], with ["t"] (seconds,
    [t_us / 1e6]) and ["member"] only when given.  A [--trace] line
    parses to exactly this value; replay mismatch reports and the
    forensics drill-down print it without ["t"]. *)

val trace_schema : string
(** ["bsolo-trace/2"]. *)

val trace_header : Trace.t -> header -> unit
(** Write the trace's first line: [{"t":..,"ev":"header","schema":..}]
    followed by the header's fields ([run_id], [engine], [lb_method],
    [started], [nvars], [nconstraints], [flags], [lb_every],
    [lgr_iters]).  [lb_every] is no header field: the line always
    carries 1.  The binary header frame keeps the slot too (0 when
    [engine] is ["portfolio"]) and its decoder skips it. *)
