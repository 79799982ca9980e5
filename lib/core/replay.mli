(** Deterministic replay of a flight recording ({!Telemetry.Recorder}).

    [run problem recording] re-executes the recorded decision sequence
    through {!Solver.solve} — the recorded options are reconstructed
    from the header (the {!Options.presets} entry it names as the
    engine, edited by its {!Options.switches} bits, cuts mode,
    lower-bound method and LGR iteration count), branching is driven
    by the recorded decisions — and cross-checks every event the replayed engine emits against the
    recording: decisions with their levels, backjumps, lower-bound
    evaluations (elapsed times excluded), prunes with blame, learned
    constraints, incumbents, restarts and the final summary must appear
    in the identical order with identical payloads.  The first
    divergence stops the replay and is reported.

    Replay needs the complete event stream from the root, so it rejects
    ring-buffer recordings (dropped prefix), stitched portfolio
    recordings (interleaving lost; replay one member's part instead)
    and recordings made by engines other than bsolo, pbs and galena.  A
    direct recording without its [fin] (run killed, or cut mid-write)
    replays and checks the surviving prefix, and reports itself not
    [complete].

    Recordings made in proof mode are replayed with a throwaway proof
    logger, because certificate validation gates pruning: a bound
    conflict whose certificate fails exact validation is downgraded to
    a plain decision, and replay must take the identical branches. *)

val flags_of_options : Options.t -> int
(** Option bitmask stored in the recording header — the bit of every
    {!Options.switches} entry that is on, the cuts mode's bit, and
    whether proof logging was on.  Bit [0x80] is always set: it marks
    the warm LPR path, the only one left (see [docs/FORMATS.md]). *)

val options_of_header : Telemetry.Recorder.header -> (Options.t, string) result
(** Reconstruct solver options from a recording header.  Limits stay
    unset: a budget-terminated recording is cut off by the replay
    cursor reaching its final event instead, which is exact where a
    re-imposed wall-clock limit would not be. *)

type mismatch = {
  at : int;  (** index into the recording's event list *)
  expected : string;  (** {!Telemetry.Recorder.to_json} rendering *)
  got : string;
}

type report = {
  outcome : Outcome.t;  (** the replayed run's outcome *)
  checked : int;  (** events that matched before any divergence *)
  total : int;  (** events in the recording *)
  complete : bool;
      (** the recording ends with its [fin] and has no torn tail: only
          then does a full match prove the whole run *)
  mismatch : mismatch option;  (** [None] = byte-identical event stream *)
}

val run :
  ?proof_out:string ->
  Pbo.Problem.t ->
  Telemetry.Recorder.recording ->
  (report, string) result
(** [Error] for recordings that cannot be replayed at all (wrong
    engine, ring or stitched recording, an LPR recording made
    under the removed cold LP path, problem dimensions that do not
    match the header).  Divergence during replay is not an
    [Error]: it lands in [report.mismatch].

    [proof_out] keeps the replay's regenerated proof log at the given
    path (instead of a deleted temp file) so the caller can check it;
    it is an [Error] to ask for one when the recording was not made in
    proof mode. *)
