open Pbo

(** In-tree cut separation for the LPR lower bound.

    Three cut families are separated against the fractional optimum of
    the residual LP and spliced into the live tableau as extra rows
    ({!Simplex.Incremental.add_row}), managed by an activity-aged
    {!Pool}:

    - {b cover cuts}: a PB constraint [sum a_i l_i >= d] is the
      knapsack [sum a_i ~l_i <= A - d]; a cover of that knapsack yields
      [sum_C l_i >= 1], optionally lifted by keeping large outside
      coefficients at floor multiples of the divisor;
    - {b clique cuts}: literals pairwise incompatible through a single
      constraint (any two of them false would overrun the knapsack
      capacity) admit [sum_Q l_i >= |Q| - 1];
    - {b implied-bound cuts}: root-probing implications [l -> m] as the
      LP rows [x_m >= x_l] the joint relaxation cannot see.

    Every cut is certified {e before} it may influence the search: in
    proof mode a cutting-planes derivation ([j] step — weakening
    literal axioms plus one ceiling division) or a RUP step is written,
    and the cut enters the LP only when the checker-side replay of that
    derivation lands exactly on the cut.  An uncertifiable cut is
    dropped, never trusted.  Cuts live only in the LP relaxation (never
    in the engine), so propagation and conflict analysis are
    unaffected. *)

type mode =
  | Off
  | Root  (** separate at decision level 0 only *)
  | Tree  (** separate at every LP evaluation *)

type family =
  | Cover
  | Clique
  | Implied

val family_name : family -> string

type cut = {
  family : family;
  constr : Constr.t;  (** the cut, in PB normal form over problem variables *)
  proof_ref : int option;
      (** proof reference [-(k+1)] of the derived constraint backing the
          cut; [None] outside proof mode *)
}

(** Certification plan of a candidate cut (consumed by {!Pool.separate}). *)
type recipe =
  | Division of {
      refs : (Proof.dref * int) list;
      divisor : int;
    }
  | Rup of Lit.t list

val lit_value : (Lit.var -> float) -> Lit.t -> float
(** LP value of a literal at a fractional point given by variable. *)

val violation : (Lit.var -> float) -> Constr.t -> float
(** [degree - lp_value]; positive means the point violates the cut. *)

val lp_row : Constr.t -> Simplex.row
(** The cut as a full-LP row (column [j] = variable [j]): positive
    literals contribute [+a], negated ones [-a] with the degree reduced
    accordingly. *)

val cover_cut :
  (Lit.var -> float) -> int * Constr.t -> (Constr.t * recipe) option
(** Most violated (plain or lifted) cover cut separated from one
    constraint [(cid, c)] at the fractional point, with its
    certification recipe; [None] when no violated cover exists. *)

val clique_cut :
  (Lit.var -> float) -> int * Constr.t -> (Constr.t * recipe) option
(** Largest-prefix clique cut of one constraint, when violated. *)

val mine_implications : Engine.Solver_core.t -> (Lit.t * Lit.t) list
(** Root-probing implication mining through
    {!Engine.Solver_core.probe} (decision level 0 required; the engine
    is left there).  Each successful probe [l] yields [(l, m)] for every
    literal [m] on the trail above level 0 but [l] itself, so no [m] was
    fixed at the root.  At most 64 probes and 256 implications.  The
    change feed is not read: its churn is left to the search's
    lower-bound procedure, which drains it on creation. *)

val implied_cut : (Lit.var -> float) -> Lit.t * Lit.t -> (Constr.t * recipe) option
(** The clause [~l \/ m] of an implication, when violated at the point. *)

(** Aging cut pool: deduplicates candidates, certifies them on entry,
    tracks per-row dual activity and nominates stale rows for
    eviction.  Telemetry counters
    [cuts.<family>.{separated,applied,evicted,tight}] are registered on
    creation. *)
module Pool : sig
  type entry = {
    cut : cut;
    lp : Simplex.row;  (** [lp_row cut.constr], built once when the entry is made *)
    mutable row : int;  (** LP row index while active, [-1] otherwise *)
    mutable idle : int;  (** consecutive optimal solves with a zero dual *)
    mutable tight : bool;
        (** has carried a nonzero dual at some optimal solve; counted once
            in [cuts.<family>.tight], so that count never exceeds
            [cuts.<family>.applied] *)
  }

  type t

  val create :
    ?proof:Proof.t -> ?max_active:int -> ?max_per_round:int -> ?stale_after:int ->
    Telemetry.Ctx.t -> t
  (** Defaults: at most 32 active rows, 8 new cuts per separation
      round, eviction after 50 consecutive idle solves. *)

  val note_implications : t -> (Lit.t * Lit.t) list -> unit
  (** Seed the pool with mined implications (candidate implied-bound
      cuts, separated lazily when violated). *)

  val separate : t -> Engine.Solver_core.t -> x:float array -> entry list
  (** Fresh violated cuts at the fractional point [x] (the LP value of
      each variable): deduplicated,
      certified (proof mode — uncertifiable candidates are dropped),
      capped per round and by pool size.  Each source row is prepared
      once: its clique cut, which does not depend on the point, is built
      then, and each call only tests its violation.  Sources and
      implications that provably yield no violated cut are skipped
      before any candidate is built (an implication whose two LP values
      differ by clearly less than the violation threshold; a row whose
      support is integral at the point, which satisfies it; a cover
      whose lifted violation, which bounds both variants', is clearly
      below the threshold), and a cover whose member set is the one last
      derived from its row reuses that derivation, so the result equals
      that of trying every candidate.  The caller must add each
      entry's row to the LP and store the index in [entry.row]. *)

  val active : t -> entry list

  val observe : t -> duals:float array -> unit
  (** Age the pool against one optimal solve's row duals; an entry's
      first nonzero dual counts it in [cuts.<family>.tight]. *)

  val evictable : t -> entry list
  (** Stale entries, highest LP row first (drop in that order). *)

  val note_evicted : t -> entry -> unit
  (** Record the eviction of an entry whose LP row was just dropped;
      shifts the stored row indices of the remaining entries down. *)
end

(** Separation configuration carried by the LPR incremental state. *)
type config = {
  pool : Pool.t;
  mode : mode;
}
