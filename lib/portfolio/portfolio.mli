open Pbo

(** Solver portfolio: run several configurations under a shared time
    budget, keep the best result, and cross-check agreement with
    {!Bsolo.Certify}.  Table 1 of the paper is in essence the argument
    that no single configuration dominates every family — a portfolio is
    the practical consequence.

    The entries run on a pool of OCaml 5 domains with a shared incumbent
    cell and cooperative cancellation (see docs/PARALLEL.md); one job is
    a pool of one worker that runs every entry in order. *)

type entry = {
  pname : string;
  psolve : options:Bsolo.Options.t -> Problem.t -> Bsolo.Outcome.t;
      (** The portfolio supplies [options] carrying the time budget,
          telemetry context and the shared-incumbent hooks; the entry overrides only strategy fields on top. *)
}

val default_entries : entry list
(** bsolo-LPR, bsolo-MIS, the PBS-like linear search and the MILP
    branch-and-bound, in that order. *)

type report = {
  winner : string;  (** entry that produced the returned outcome *)
  outcome : Bsolo.Outcome.t;
  runs : (string * Bsolo.Outcome.t) list;  (** everything that was run *)
  failures : (string * string) list;
      (** entries whose worker raised, with the exception text — a crash
          is isolated to its entry, never the whole portfolio *)
  disagreement : string option;
      (** human-readable description if two entries contradicted each
          other — would indicate a solver bug *)
}

val better : Bsolo.Outcome.t -> Bsolo.Outcome.t -> bool
(** Result ranking: completed proofs ([Optimal]/[Unsatisfiable]) beat
    [Satisfiable], which beats [Unknown]; within a rank lower best cost
    wins.  Not a total order — callers keep the earlier entry on ties,
    making the winner deterministic regardless of finish order. *)

val solve :
  ?telemetry:Telemetry.Ctx.t ->
  ?run_id:string ->
  ?observe:bool ->
  ?proof_file:string ->
  ?record_file:string ->
  ?entries:entry list ->
  ?jobs:int ->
  budget:float ->
  Problem.t ->
  report
(** Runs the entries under a shared wall-clock [budget] and returns the
    best outcome: proved results beat bounds, lower costs beat higher
    ones, ties go to the earlier entry.

    The entries run on [max 1 (min jobs n)] workers — the calling domain
    and one spawned domain per further job — with entry [i] assigned to
    worker [i mod jobs].  A worker runs its entries one after another;
    each gets as its time limit its fair share of the time left,
    [(deadline - now) / entries the worker has not yet run], so an early
    unproved finisher donates its remainder to the worker's later entries
    and with [jobs >= n] every entry gets the whole [budget].

    All members share one incumbent cell — every improving model whose
    model satisfies the problem at exactly its claimed cost is
    CAS-published with that cost, and the others poll it and offer the
    model to their own search, which adopts it only after checking it
    against the problem ({!Bsolo.Options.external_incumbent}) — and a
    stop flag raised on the first completed proof.  An imported model is
    the importer's own incumbent from then on, so a member that closes
    its search proves [Optimal] on its own.  Once the flag is up a
    worker starts no further entry; skipped entries are not listed in
    [runs] and count in [portfolio.cancelled].  An exception in one
    member is reported in [failures] and does not abort the others.

    After the join the winning incumbent is written into [telemetry]'s
    live cell (and, for an [Optimal] outcome, its cost as the lower
    bound too), so the final heartbeat carries the portfolio's
    bounds.

    When [telemetry] is given, each member's private registry is merged
    into the shared one after the join, every counter and gauge under
    [portfolio.<name>.<its own name>] (so [portfolio.<name>.search.nodes],
    never a second short name), plus the gauge [portfolio.<name>.seconds]
    for the member's wall time; the portfolio-level counters
    [portfolio.incumbent_broadcasts] and [portfolio.cancelled] are set.
    Imports are the members' [portfolio.<name>.search.incumbent_imports].

    Observability: with [telemetry] given, each member run is one
    [member:<name>] span on the member's own track, read before the
    member starts and written after it returns or raises; the member's
    timer writes its phase spans inside it, on the same track.  Each
    member publishes a {!Telemetry.Profile.Cell} — named after the
    member, registered in the member table with its private registry
    under the prefix [portfolio.<name>.] (the one the post-join merge
    uses) for exactly the run's duration — which the live monitor
    observes and scrapes; [observe] turns the cells' current phase on
    (the heartbeat case).  Each member's phase
    timer runs when [telemetry]'s does, and its self times are added
    into [telemetry]'s timer after the join: the portfolio's phase times
    are summed over members, so with [jobs] > 1 they can exceed the wall
    time.

    With [record_file] each member writes a flight recording into
    [<record_file>.<member>.part] and the parts are stitched — like the
    proof parts — into one [record_file] with per-member [section]
    lines once the members finish, each section ending in the member's
    [fin] unless it crashed.  Stitched recordings feed [inspect
    forensics]; they are not replayable (the interleaving between
    members is not recorded).
    [run_id], when given, is recorded as a [# run] comment in the
    stitched proof log.

    When [proof_file] is given, each proof-logging member streams its
    derivation into a private [FILE.<member>.part] log; after the join
    the parts are stitched into [FILE] as [m]-delimited sections with a
    final [F] claim, the best member outcome's, checkable
    with [bsolo checkproof].  Members that do not log proofs (MILP) or
    crash mid-run leave truncated parts, which are dropped from the
    stitched log rather than invalidating it. *)
