open Pbo

(** Certified proof logging and checking (format [bsolo-pbp 1]).

    With [--proof FILE] the solver streams an auditable derivation
    trail: every learned clause becomes a RUP step, every bound-based
    conflict (paper eqs. 8-9) an explicit cutting-planes step carrying
    the Lagrangian or Farkas multipliers that justify it, every
    incumbent (found or imported from a portfolio peer) a verified
    solution step carrying its model, and the run ends with a
    conclusion line.  [bsolo checkproof PROBLEM PROOF] replays the log against
    the parsed problem with exact integer arithmetic and exits
    non-zero on the first unjustified step.  See [docs/PROOFS.md] for
    the format grammar and trust model.

    Domain-safety: a {!Sink.t} serializes writers with an internal
    mutex; one logger per domain writing to its own sink is the
    intended portfolio usage.  Each logger and each check owns its
    scratch (the line being built, the certificate validator's
    accumulators); nothing is kept at module level. *)

val version : string
(** Header tag, ["bsolo-pbp 1"]. *)

val denom : int
(** Fixed scaling denominator for fractional multipliers: an integer
    multiplier [m] in a [b]/[y] step stands for the rational
    [m / denom].  Soundness never depends on the rounding: the scaled
    integers {e are} the multipliers being checked. *)

val lit_to_int : Lit.t -> int
(** Signed 1-based literal encoding: [x3 -> 3], [~x3 -> -3]. *)

val lit_of_int : int -> Lit.t
(** Inverse of {!lit_to_int}.  Raises [Invalid_argument] on [0]. *)

(** {1 Certificates for bound-based conflicts}

    The logger and the checker validate a [b]/[y] step the same way.
    Its multipliers [m_i >= 0] are integers scaled by {!denom}, over
    original constraints or [x<k>] derived ones; let [rho] pin every
    literal of the clause false and [B = sum m_i d_i + sum_v
    min-term_v(rho)] be the Lagrangian bound (cost terms included for
    [b]).  A [b] step holds when [B > (upper - 1) denom], so every
    completion of [rho] satisfying the referenced constraints costs at
    least the bound; a [y] step holds when [B > 0], so none satisfies
    them.  Overflow, a bad reference or a negative multiplier rejects;
    a tautological clause holds. *)

type cert =
  | Cert_path
      (** the path cost alone reaches the incumbent bound; no
          constraint multipliers needed. *)
  | Cert_bound of (int * float) list
      (** Lagrangian certificate: per referenced original constraint
          (index into [Problem.constraints]) a multiplier whose sign
          convention is resolved at validation time (simplex exits
          disagree on dual signs; any nonnegative choice is sound). *)
  | Cert_farkas of (int * float) list
      (** infeasibility certificate: a nonnegative combination of the
          referenced constraints is violated under the conflict
          clause's pinning, independent of the objective. *)

(** {1 Objective cuts recomputed by the checker} *)

val objective_cut : Problem.t -> upper:int -> Constr.norm option
(** The incumbent knapsack constraint (paper eq. 10):
    [sum c_j l_j <= upper - 1] over the objective cost literals,
    [upper] offset-free.  [None] for satisfaction instances.  Must
    stay semantically identical to the cut of
    [Bsolo.Knapsack.knapsack_row] (a test asserts this). *)

val cardinality_cut : Problem.t -> cid:int -> upper:int -> Constr.norm option
(** The cardinality inference (paper eqs. 11-13) for original
    constraint [cid] at incumbent bound [upper]; [None] when [cid] is
    out of range, not a cardinality constraint, or yields no cut
    ([V <= 0]).  Must stay semantically identical to the cut of the
    matching [Bsolo.Knapsack.cardinality_rows] entry (a test asserts
    this).  The checker prepares [V] and the outside-[K] terms once per
    cid, so each [d] step only evaluates the degree. *)

(** {1 Sinks} *)

module Sink : sig
  type t
  (** Buffered, mutex-guarded line sink (same discipline as
      [Telemetry.Trace]: autoflush every 64 lines, idempotent
      close). *)

  val open_file : string -> t
  (** Truncates/creates [path].  Raises [Sys_error] on failure. *)

  val of_buffer : Buffer.t -> t
  (** In-memory sink for tests. *)

  val name : t -> string

  val set_flush_hook : t -> (lines:int -> seconds:float -> unit) -> unit
  (** Observe the periodic channel flushes: called (under the sink lock,
      on the writing domain) after each autoflush with the line count so
      far and the flush duration.  The CLI wires this to a tracing span;
      the proof layer itself stays telemetry-free. *)

  val write : t -> string -> unit
  (** Append one raw line (the newline is added).  Loggers use this
      internally; the CLI uses it to terminate a log whose run aborted
      before a logger existed (parse failure), leaving a well-formed
      [NONE] conclusion instead of a truncated file. *)

  val close : t -> unit
  (** Flush and close (idempotent); file-backed sinks close their
      channel. *)
end

(** {1 Logger} *)

type conclusion =
  | Optimal of int  (** proved optimum, offset-included cost *)
  | Unsat
  | Sat of int  (** verified model of that cost, no optimality claim *)
  | No_claim  (** aborted or budget-exhausted run; nothing claimed *)

val conclusion_to_string : conclusion -> string

type t
(** A proof logger bound to one sink and one problem. *)

val create : ?header:bool -> Sink.t -> Problem.t -> t
(** [header:false] suppresses the [p]/[f] lines (portfolio member
    part files that a stitcher later concatenates). *)

val steps : t -> int
(** Derivation steps written so far ([s]/[u]/[b]/[y]/[d]/[j]). *)

val uncertified : t -> int
(** Bound conflicts whose certificate failed exact validation; the
    caller must not have pruned on them. *)

val log_comment : t -> string -> unit
val log_solution : t -> cost:int -> Model.t -> unit
(** Verified incumbent, found or imported: [cost] offset-included; the
    full model is logged so the checker can replay the verification. *)

val log_learned : t -> Lit.t list -> unit
(** RUP step for a clause learned by conflict analysis. *)

val log_rup : t -> Lit.t list -> (int * Constr.t) option
(** Like {!log_learned} but returns the clause's derived-constraint
    index (and normal form) so later steps can reference it as
    [x<k>]; [None] when the clause normalizes to a triviality (the
    step is still written). *)

val log_contradiction : t -> unit
(** Empty-clause RUP step: the checker's root state must already be
    conflicting. *)

val log_cardinality_cut : t -> cid:int -> bool
(** Cut from {!cardinality_cut} added at the current incumbent bound.
    [cid] is an engine cid; it is translated through the presolve
    alias map first and the step is only written — returning [true] —
    when it aliases an untouched original constraint (the checker
    recomputes the cut from the original database). *)

(** {2 Cutting-planes derivations}

    A [j] step derives a new constraint as an exact nonnegative
    integer combination of references followed by a ceiling division:
    [j r1:m1 r2:m2 ... ; d].  References are original cids, derived
    constraints [x<k>], or literal axioms [l<n>:m] standing for
    [m * (lit_of_int n >= 0)] (how coefficients are weakened away
    before dividing).  The checker recomputes the combination, divides,
    saturates, and appends the result to the section's
    derived-constraint table — the logger never writes a claimed
    constraint, so a [j] step cannot overstate what it derives. *)

type dref =
  | Rcid of int  (** engine cid (translated through the alias map) *)
  | Rderived of int  (** [k]-th derived constraint of the section *)
  | Rlit of Lit.t  (** literal axiom [lit >= 0] *)

val log_derived : t -> refs:(dref * int) list -> divisor:int -> (int * Constr.t) option
(** Compute the derivation exactly as the checker will; when the
    result is a real constraint, write the [j] step and return its
    derived index and normal form.  [None] (nothing written) when a
    reference is unresolvable, arithmetic overflows, the divisor is
    non-positive, or the result is trivial — the caller must then drop
    the cut. *)

val derived_count : t -> int
(** Entries in the current section's derived-constraint table. *)

val set_cid_map : t -> int array -> unit
(** Install the presolve alias map: entry [c] gives the proof
    reference for engine cid [c] — an untouched original cid ([>= 0])
    or a derived tightening [-(k+1)].  Affects subsequent
    {!log_bound_conflict}, {!log_derived} and
    {!log_cardinality_cut}. *)

val log_bound_conflict : t -> upper:int -> omega:Lit.t list -> cert -> bool
(** Validate the certificate exactly (trying both dual sign
    conventions, falling back to the path-only certificate) and, on
    success, write the [b]/[y] step deriving [omega] and return
    [true].  On failure nothing is written, {!uncertified} is bumped
    and the caller must not prune ([false]). *)

val log_conclusion : t -> conclusion -> unit

(** {1 Checking} *)

module Check : sig
  type summary = {
    steps : int;
    rup : int;
    bound : int;
    farkas : int;
    solutions : int;
    cuts : int;
    sections : string list;  (** portfolio member names, [""] for a single-run log *)
    verdict : string;  (** rendered final conclusion *)
  }

  val check_string : Problem.t -> string -> (summary, string) result
  (** Replay a complete proof text against the problem.  [Error msg]
      carries the 1-based line number of the first unjustified or
      malformed step. *)

  val check_file : Problem.t -> string -> (summary, string) result
end
