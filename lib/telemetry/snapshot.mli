(** Heartbeat snapshots: periodic JSONL records of run progress.

    A heartbeat file starts with a header line (schema
    ["bsolo-heartbeat/1"], run id, absolute start time), carries one
    snapshot per line — per-member phase / bounds / node rate read from
    the live {!Profile} cells, counter deltas, best incumbent with
    provenance — and ends with an ["end"] record.  Because lb cells only
    rise and ub cells only fall, the per-member gap is monotonically
    non-widening across snapshots.

    The live monitor ([Obsd.Monitor]) takes the snapshots, numbers them
    and hands each one to every consumer; a run always gets at least
    two, one as the monitor starts and one as it stops.

    Domain-safety: a writer and a collector belong to one domain (the
    monitor's), which takes racy-but-tear-free reads of cells and
    counter lists. *)

type member = {
  m_name : string;
  m_phase : string;  (** innermost current phase, or ["idle"] *)
  m_lb : float;  (** [neg_infinity] when none yet *)
  m_ub : float;  (** [infinity] when none yet *)
  m_nodes : int;
  m_node_rate : float;  (** nodes per second since the previous snapshot *)
  m_ub_self : bool;  (** found its own incumbent (vs imported) *)
}

type snap = {
  s_t : float;  (** seconds on the shared {!Epoch} *)
  s_seq : int;
  s_members : member list;
  s_deltas : (string * int) list;  (** counter increments since previous snapshot *)
  s_best : (float * string) option;  (** best ub and the member holding it *)
}

val encode : snap -> Json.t

val decode : Json.t -> snap option
(** [None] for non-snapshot lines (the header, the end record). *)

(** {1 Writer} *)

type t

val open_file : string -> run_id:string -> started:float -> every:float -> t
(** Create the file and write the header line.  Every record is flushed
    immediately so the file can be tailed live. *)

val write : t -> snap -> unit
(** Append one snapshot as it is, [s_seq] included. *)

val close : t -> unit
(** Write the end record and close.  Idempotent. *)

(** {1 Collector} *)

type collector

val collector : ?registry:Registry.t -> unit -> collector
(** Snapshot builder holding previous-tick state for rates and deltas.
    [registry], when given, contributes counter deltas. *)

val take : collector -> snap
(** Build a snapshot ([s_seq] 0 — the monitor assigns real sequence
    numbers) from the live cells, and advance the collector.  The first
    advancing take has no previous observation, so its node rates are 0
    rather than nodes-so-far over a near-zero interval. *)

val peek : collector -> snap
(** Like {!take} but without advancing the collector: rates and deltas
    are measured against the last advancing {!take}, whose interval
    stays whole.  Used for forced (out-of-band) snapshots and [/status]. *)
