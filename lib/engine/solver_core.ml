open Pbo

type cid = int

type analysis =
  | Root_conflict
  | Backjump of {
      level : int;
      asserting : Lit.t option;
    }

type reason =
  | Decision
  | Implied of cid

(* Hot data (terms, slacks, watch bits) lives in one flat int arena —
   see the layout constants below.  The cstate keeps only the cold
   per-constraint facts plus the boxed [Constr.t] used by conflict
   analysis, certificates and the lower-bounding view. *)

(* Activities live in all-float records, which OCaml stores flat: a bump
   writes the float in place instead of boxing a new one, so conflict
   analysis allocates nothing for them. *)
type activity = { mutable act : float }

type increments = {
  mutable var_inc : float;
  mutable cla_inc : float;
}

type cstate = {
  constr : Constr.t;
  learned : bool;
  cactivity : activity;
  mutable base : int;  (* arena offset of this constraint's block *)
}

type row = int  (* index into [rows] *)

(* A cut row: one term list shared by every member.  Each member is a
   constraint of its own (cid, arena block, activity, [Constr.t]) that
   keeps only its degree.  Every row is the objective's normal form (the
   knapsack row (10)) minus the terms of an excluded set K, divided by
   one factor: the row's coefficient of a term times [rscale] is that
   term's cost.  So the row's lagged sum is [(gsum - rx) / rscale],
   where [gsum] (in the engine) is the cost of the objective's non-false
   normal-form terms and [rx] that of the row's excluded ones, and its
   terms are the normal form's positions that [rout] does not mark.
   Members are kept in ascending degree, so a visit walks them from the
   tightest down and stops at the first one that cannot act. *)
type rowstate = {
  rconstr : Constr.t;  (* every member's [Constr.t] shares its term array *)
  rout : Bytes.t;  (* per position of the normal form: non-zero iff excluded *)
  rmax : int;
  rscale : int;
  mutable rx : int;
  mutable rskip : int;  (* the engine's [ndequeues] when an excluded literal was last dequeued *)
  rmembers : int Vec.t;  (* stride 2: (arena base, degree) of each member *)
}

(* Search counters, declared once against the run's telemetry registry so
   every driver exports them uniformly (names are "engine.*").  Each field
   is a handle whose increment is a single store, exactly as cheap as the
   former ad-hoc mutable record. *)
type stats = {
  decisions : Telemetry.Counter.t;
  conflicts : Telemetry.Counter.t;
  bound_conflicts : Telemetry.Counter.t;
  learned_total : Telemetry.Counter.t;
  restarts : Telemetry.Counter.t;
  max_trail : Telemetry.Counter.t;
  backjump_len : Telemetry.Histogram.t;  (* levels undone per conflict *)
  learned_size : Telemetry.Histogram.t;  (* literals per learned clause *)
  depth : Telemetry.Histogram.t;  (* decision level at each decision *)
}

(* BCP-specific counters ("bcp.*"): propagation micro-behaviour that the
   engine.* family is too coarse to show.  The population counters are
   absolute values maintained with [set]. *)
type bcp_stats = {
  b_props : Telemetry.Counter.t;  (* implied assignments: the run's one propagation count *)
  b_visits : Telemetry.Counter.t;  (* constraint examinations during propagation *)
  b_moves : Telemetry.Counter.t;  (* falsified watches retired from a watch set *)
  b_extends : Telemetry.Counter.t;  (* literals added to a watch set *)
  b_nwatched : Telemetry.Counter.t;  (* watched constraints: all but cut-row members *)
  b_nwatchall : Telemetry.Counter.t;  (* watched constraints now in watch-all *)
}

let bcp_stats_of_registry reg =
  let c = Telemetry.Registry.counter reg in
  {
    b_props = c "bcp.propagations";
    b_visits = c "bcp.visits";
    b_moves = c "bcp.watch_moves";
    b_extends = c "bcp.watch_extends";
    b_nwatched = c "bcp.constrs_watched";
    b_nwatchall = c "bcp.constrs_watch_all";
  }

let stats_of_registry reg =
  let c = Telemetry.Registry.counter reg in
  {
    decisions = c "engine.decisions";
    conflicts = c "engine.conflicts";
    bound_conflicts = c "engine.bound_conflicts";
    learned_total = c "engine.learned";
    restarts = c "engine.restarts";
    max_trail = c "engine.max_trail";
    backjump_len = Telemetry.Registry.histogram reg "engine.backjump_len";
    learned_size = Telemetry.Registry.histogram reg "engine.learned_size";
    depth = Telemetry.Registry.histogram reg "engine.depth";
  }

type t = {
  problem : Problem.t;
  nvars : int;
  value : Value.t array;  (* per variable *)
  var_level : int array;
  var_reason : reason array;
  var_pos : int array;  (* trail position of the assignment *)
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t;  (* trail size at each decision level start *)
  mutable qhead : int;
  constrs : cstate Vec.t;
  (* One flat arena holding every constraint's hot block: header words
     followed by (literal-index, coefficient) pairs.  Watch lists index
     into it; propagation never chases a pointer. *)
  mutable arena : int array;
  mutable arena_top : int;
  rows : rowstate Vec.t;
  (* The state every row reads, built at the first row: [obase] is the
     objective's normal form as (literal index, cost) pairs in term
     order, [gsum] the cost of its terms that are not lagged-false,
     [excl] the rows that exclude each literal, and [rkeys] each row's
     key: the row is tight (its tightest member's slack is below its
     largest coefficient) exactly when its key is above [gsum].  Every
     position of [obase] before [bcursor] is assigned; [bmarks] says at
     which levels: each mark is a position where the level of that
     prefix may first exceed the marks before it, with that level and
     the number of the decision that opened it ([btop] is the last
     mark's level, 0 without marks).  A backjump that closes a marked
     level cuts the cursor back to the mark's position, and no
     further. *)
  mutable obase : int array;
  mutable bcursor : int;
  bmarks : int Vec.t;
  mutable btop : int;
  mutable gsum : int;
  mutable excl : int list array;
  mutable rkeys : int array;
  mutable ndequeues : int;  (* objective dequeues: stamps the rows a dequeue skips *)
  watches : int Vec.t array;
  (* per literal index: packed [base lsl wshift lor term_idx] entries of
     watched constraints — one word per watch keeps the visit and
     restore walks to a single read per entry *)
  lfalse : Bytes.t;
  (* per literal index: non-zero iff the literal is currently assigned
     false (pending or dequeued) — a one-load mirror of [value_lit _ =
     False] for the propagation inner loops *)
  actors : int Vec.t;
  (* scratch for [process_falsified]: bases of the constraints of the
     current dequeue whose final slack fell below maxcoeff, or for a
     cut-row member below its row's c*; acted on in ascending arena
     order after all decrements are in *)
  level_ids : int Vec.t;  (* per open decision level: the number of the decision that opened it *)
  mutable ndecisions : int;
  mutable nlearned : int;  (* constraints with [learned] set *)
  lit_cost : int array;  (* per literal index *)
  mutable path : int;
  heap : Idheap.t;
  inc : increments;
  phase : bool array;
  seen : bool array;  (* analysis scratch, always cleared afterwards *)
  alits : Lit.t Vec.t;  (* analysis input: the initial conflict clause *)
  learnt : Lit.t Vec.t;  (* analysis scratch: marked lower-level literals *)
  lbuf : int Vec.t;  (* analysis scratch: the learned clause's literal indices *)
  to_clear : Lit.var Vec.t;  (* analysis scratch: variables marked seen *)
  omega_marks : Bytes.t;  (* per literal index: explanation scratch, all zero between calls *)
  mutable omega_lo : int;
  mutable omega_hi : int;
  mutable unsat : bool;
  mutable epoch : int;  (* bumped on every assign/unassign *)
  changed : Lit.var Vec.t;  (* vars (un)assigned since the last drain, deduped *)
  changed_mark : bool array;
  stats : stats;
  bstats : bcp_stats;
  tel : Telemetry.Ctx.t;
  (* Cooperative cancellation: an externally installed check, polled at a
     bounded cadence inside [propagate] (the engine's innermost batch
     loop).  Once it returns true the flag latches; drivers read
     [interrupted] in their budget checks.  Propagation always completes
     its fixpoint so the engine is never left mid-batch. *)
  mutable interrupt_check : (unit -> bool) option;
  mutable interrupted : bool;
  mutable interrupt_fuel : int;  (* trail pops until the next poll *)
  (* Proof logging: called with each learned clause right after it is
     attached, before the asserting literal is assigned.  The clause is
     reverse-unit-propagation derivable from the constraints known to
     the engine at that point. *)
  mutable on_learned : (Lit.t list -> unit) option;
}

let dummy_lit = Lit.pos 0

let dummy_cstate =
  {
    constr =
      (match Constr.clause [ dummy_lit ] with
      | Constr.Constr c -> c
      | Constr.Trivial_true | Constr.Trivial_false -> assert false);
    learned = false;
    cactivity = { act = 0. };
    base = 0;
  }

let dummy_row =
  {
    rconstr = dummy_cstate.constr;
    rout = Bytes.empty;
    rmax = 0;
    rscale = 1;
    rx = 0;
    rskip = 0;
    rmembers = Vec.create ~capacity:1 ~dummy:0 ();
  }

(* --- arena layout ---------------------------------------------------------

   Each constraint owns one block:

     [cid] [nterms] [degree] [maxcoeff] [cursor/row] [wslack] [flags]
     (lit_index, coeff)*

   Term order is the constraint's (decreasing coefficient).  Bit 62 of a
   coefficient word marks the term as watched; coefficients are bounded
   far below that (Constr caps them at 2^40).  [wslack] is the weight of
   the watched terms minus the degree, counting a falsified literal only
   once its assignment has been *dequeued* by [propagate] (or,
   symmetrically, until the backjump that pops a dequeued assignment).
   Lagging makes the examined slack depend only on which literal is
   being dequeued, never on how earlier candidates of the same dequeue
   reacted, so a dequeue can apply all its decrements before acting
   (see [process_falsified]).  [cursor/row] is where the next watch
   extension starts its search.

   A cut-row member's block is the header alone ([nterms] is 0): its
   terms are the row's, [cursor/row] holds the row index and [flags] is
   [flag_member]. *)

let h_cid = 0
let h_n = 1
let h_deg = 2
let h_max = 3
let h_cursor_or_row = 4
let h_wslack = 5
let h_flags = 6
let hdr_size = 7
let flag_watch_all = 1
let flag_member = 2

(* Watch entries pack (arena base, term index) into one word; term
   indices are bounded by [wshift] bits (checked at allocation — a
   million-term constraint would be pathological long before this). *)
let wshift = 20
let wmask = (1 lsl wshift) - 1
let watch_bit = 1 lsl 62
let coeff_mask = watch_bit - 1

let arena_ensure t need =
  let len = Array.length t.arena in
  if t.arena_top + need > len then begin
    let nlen = ref (max 1024 (2 * len)) in
    while t.arena_top + need > !nlen do
      nlen := 2 * !nlen
    done;
    let a = Array.make !nlen 0 in
    Array.blit t.arena 0 a 0 t.arena_top;
    t.arena <- a
  end

(* Allocate and fill a block for [c]; the cursor, slack and flags start
   at 0 and are set by the attach path. *)
let arena_alloc t ci c =
  let terms = Constr.terms c in
  let n = Array.length terms in
  assert (n <= wmask);
  arena_ensure t (hdr_size + (2 * n));
  let base = t.arena_top in
  t.arena_top <- t.arena_top + hdr_size + (2 * n);
  let a = t.arena in
  a.(base + h_cid) <- ci;
  a.(base + h_n) <- n;
  a.(base + h_deg) <- Constr.degree c;
  a.(base + h_max) <- (if n = 0 then 0 else Constr.max_coeff c);
  a.(base + h_cursor_or_row) <- 0;
  a.(base + h_wslack) <- 0;
  a.(base + h_flags) <- 0;
  for i = 0 to n - 1 do
    a.(base + hdr_size + (2 * i)) <- Lit.to_index terms.(i).Constr.lit;
    a.(base + hdr_size + (2 * i) + 1) <- terms.(i).Constr.coeff
  done;
  base

let problem t = t.problem
let root_unsat t = t.unsat
let nvars t = t.nvars
let value_var t v = t.value.(v)

let value_lit t l =
  let v = t.value.(Lit.var l) in
  if Lit.is_pos l then v else Value.negate v

let level_of_var t v = t.var_level.(v)
let decision_level t = Vec.size t.trail_lim
let num_assigned t = Vec.size t.trail
let all_assigned t = Vec.size t.trail = t.nvars
let path_cost t = t.path
let cost_of_lit t l = t.lit_cost.(Lit.to_index l)
let stats t = t.stats
let telemetry t = t.tel
let trail_epoch t = t.epoch

(* Poll cadence for the cooperative interrupt check: one callback call per
   this many trail entries processed by [propagate] (and at least one per
   [propagate] call), so polling cost stays negligible while the latency
   of observing a stop request stays bounded by one propagation batch. *)
let interrupt_poll_period = 256

let set_interrupt t check = t.interrupt_check <- Some check
let interrupted t = t.interrupted
let set_on_learned t f = t.on_learned <- Some f

(* Direct (fuel-free) consultation, for wrapping long-running kernels that
   poll on their own cadence — e.g. the simplex iteration loop during an
   LPR lower-bound call. *)
let interrupt_requested t =
  t.interrupted
  ||
  match t.interrupt_check with
  | Some check when check () ->
    t.interrupted <- true;
    true
  | Some _ | None -> false

let poll_interrupt t =
  match t.interrupt_check with
  | None -> ()
  | Some check ->
    t.interrupt_fuel <- t.interrupt_fuel - 1;
    if t.interrupt_fuel <= 0 then begin
      t.interrupt_fuel <- interrupt_poll_period;
      if (not t.interrupted) && check () then t.interrupted <- true
    end

let drain_changed_vars t f =
  Vec.iter
    (fun v ->
      t.changed_mark.(v) <- false;
      f v)
    t.changed;
  Vec.clear t.changed

let model t =
  let a = Array.make t.nvars false in
  for v = 0 to t.nvars - 1 do
    a.(v) <- (match t.value.(v) with Value.True -> true | Value.False | Value.Unknown -> false)
  done;
  Model.of_array a

(* --- assignment & trail -------------------------------------------------- *)

(* The lagged-false predicate: a literal counts against arena slacks
   once its falsifying assignment has been dequeued by [propagate],
   i.e. its trail position is below [qhead].  Between assignment and
   dequeue the literal is "pending" and still counts as available
   weight; [propagate] applies the decrement exactly when it dequeues
   the assignment, and [backjump_to] reverts it only for popped
   assignments that had been dequeued. *)
let lagged_false t l =
  Value.equal (value_lit t l) Value.False && t.var_pos.(Lit.var l) < t.qhead

(* Assigning a literal no longer touches any slack: decrements are
   applied lazily when [propagate] dequeues the assignment, so [assign]
   is a handful of stores regardless of occurrence-list length. *)
let assign t l reason =
  let v = Lit.var l in
  assert (Value.equal t.value.(v) Value.Unknown);
  t.value.(v) <- Value.of_bool (Lit.is_pos l);
  t.var_level.(v) <- decision_level t;
  t.var_reason.(v) <- reason;
  t.var_pos.(v) <- Vec.size t.trail;
  t.phase.(v) <- Lit.is_pos l;
  Bytes.unsafe_set t.lfalse (Lit.to_index (Lit.negate l)) '\001';
  Vec.push t.trail l;
  Telemetry.Counter.set_max t.stats.max_trail (Vec.size t.trail);
  t.epoch <- t.epoch + 1;
  if not t.changed_mark.(v) then begin
    t.changed_mark.(v) <- true;
    Vec.push t.changed v
  end;
  t.path <- t.path + t.lit_cost.(Lit.to_index l)

let unassign t l =
  let v = Lit.var l in
  t.value.(v) <- Value.Unknown;
  Bytes.unsafe_set t.lfalse (Lit.to_index (Lit.negate l)) '\000';
  t.epoch <- t.epoch + 1;
  if not t.changed_mark.(v) then begin
    t.changed_mark.(v) <- true;
    Vec.push t.changed v
  end;
  t.path <- t.path - t.lit_cost.(Lit.to_index l);
  Idheap.insert t.heap v

(* Move the excluded sums of rows [rs] by [delta], their keys with them,
   and mark the rows as skipped by the current dequeue (a restore's mark
   is stale by the next dequeue). *)
let rec shift_excluded t delta = function
  | [] -> ()
  | ri :: rest ->
    let r = Vec.unsafe_get t.rows ri in
    r.rx <- r.rx + delta;
    t.rkeys.(ri) <- t.rkeys.(ri) + delta;
    r.rskip <- t.ndequeues;
    shift_excluded t delta rest

(* Move the rows' shared sum, and the excluded sums of the rows that
   exclude [qi], by [delta]: a term of cost [-delta] was falsified, or
   [delta] came back. *)
let shift_rows t qi delta =
  t.gsum <- t.gsum + delta;
  shift_excluded t delta t.excl.(qi)

(* Revert the dequeue-time decrements of falsified literal [q]:
   watch-set slacks through its watch list, and the rows' sums when [q]
   is an objective term.  Watch entries dropped since the decrement
   never re-appear here, matching the fact that an unwatched term
   contributes nothing to wslack in either direction. *)
let restore_falsified t q =
  let a = t.arena in
  let qi = Lit.to_index q in
  let cost = t.lit_cost.(Lit.to_index (Lit.negate q)) in
  if cost > 0 && Vec.size t.rows > 0 then shift_rows t qi cost;
  let wlist = t.watches.(qi) in
  let wn = Vec.size wlist in
  let j = ref 0 in
  while !j < wn do
    let packed = Vec.unsafe_get wlist !j in
    let base = packed lsr wshift in
    let ti = packed land wmask in
    a.(base + h_wslack) <-
      a.(base + h_wslack) + (a.(base + hdr_size + (2 * ti) + 1) land coeff_mask);
    incr j
  done

let backjump_to t lvl =
  if lvl < decision_level t then begin
    let keep = Vec.get t.trail_lim lvl in
    (* [qhead] stays put while popping: a popped assignment was dequeued
       (and thus decremented) exactly when its position is below it. *)
    let rec pop () =
      if Vec.size t.trail > keep then begin
        let l = Vec.pop t.trail in
        if t.var_pos.(Lit.var l) < t.qhead then restore_falsified t (Lit.negate l);
        unassign t l;
        pop ()
      end
    in
    pop ();
    Vec.shrink t.trail_lim lvl;
    Vec.shrink t.level_ids lvl;
    t.qhead <- Vec.size t.trail
  end

let restart t =
  Telemetry.Counter.incr t.stats.restarts;
  backjump_to t 0

let decide t l =
  Telemetry.Counter.incr t.stats.decisions;
  Vec.push t.trail_lim (Vec.size t.trail);
  t.ndecisions <- t.ndecisions + 1;
  Vec.push t.level_ids t.ndecisions;
  Telemetry.Histogram.observe t.stats.depth (decision_level t);
  assign t l Decision

(* --- propagation --------------------------------------------------------- *)

(* Scan the block at [base] from term [i0] for implied literals under
   slack [s]: terms are sorted by decreasing coefficient, so stop at the
   first coefficient <= s, and return its index.  Callers only pass a
   slack below maxcoeff, which the watch invariant makes the exact
   lagged slack of the constraint. *)
let scan_terms t terms off n ci s i0 =
  let rec go i =
    if i >= n then i
    else begin
      let coeff = terms.(off + (2 * i) + 1) land coeff_mask in
      if coeff <= s then i
      else begin
        let lit = Lit.of_index terms.(off + (2 * i)) in
        if Value.equal (value_lit t lit) Value.Unknown then begin
          Telemetry.Counter.incr t.bstats.b_props;
          assign t lit (Implied ci)
        end;
        go (i + 1)
      end
    end
  in
  go i0

let scan_implications_arena t base s =
  let a = t.arena in
  ignore (scan_terms t a (base + hdr_size) a.(base + h_n) a.(base + h_cid) s 0)

(* Level [lvl] is still the one the decision numbered [id] opened.  A
   level closed or reopened since has lost every assignment made on it
   then, and so have the levels above it. *)
let level_open t lvl id = lvl <= decision_level t && Vec.unsafe_get t.level_ids (lvl - 1) = id

(* The number of words of [bmarks] whose levels are still open.  Level
   0 is never closed, and the positions before the first closed mark
   are of levels still open. *)
let open_marks t =
  let m = t.bmarks in
  let k = ref (Vec.size m) in
  while !k > 0 && not (level_open t (Vec.unsafe_get m (!k - 2)) (Vec.unsafe_get m (!k - 1))) do
    k := !k - 3
  done;
  !k

(* The normal form's first unassigned position (its length when every
   term is assigned), found by cutting the cursor back to the first
   mark whose level was closed, if any, and moving it on from there.
   Every row reads it: a row's first unassigned term is at or after
   it. *)
let base_cursor t =
  let m = t.bmarks in
  let k = open_marks t in
  if k < Vec.size m then begin
    t.bcursor <- Vec.unsafe_get m k;
    Vec.shrink m k;
    t.btop <- (if k = 0 then 0 else Vec.unsafe_get m (k - 2))
  end;
  let base = t.obase in
  let n = Array.length base / 2 in
  let i = ref t.bcursor and walking = ref true in
  while !walking && !i < n do
    let v = Lit.var (Lit.of_index base.(2 * !i)) in
    if Value.equal t.value.(v) Value.Unknown then walking := false
    else begin
      let lv = t.var_level.(v) in
      if lv > t.btop then begin
        Vec.push m !i;
        Vec.push m lv;
        Vec.push m (Vec.unsafe_get t.level_ids (lv - 1));
        t.btop <- lv
      end;
      incr i
    end
  done;
  t.bcursor <- !i;
  !i

(* The row's first unassigned term, as a position of the normal form
   (its length when there is none), from [from] on: every position
   before [from] is assigned. *)
let row_first t r from =
  let base = t.obase in
  let n = Array.length base / 2 in
  let j = ref from in
  while
    !j < n
    && (Bytes.unsafe_get r.rout !j <> '\000'
       || not (Value.equal t.value.(Lit.var (Lit.of_index base.(2 * !j))) Value.Unknown))
  do
    incr j
  done;
  !j

(* A member, of slack [s], acts through its row's terms under its own
   cid: terms are in decreasing coefficient, so it implies each one
   from the shared cursor on until the first whose coefficient is at
   most [s].  Every term before the cursor is assigned, so this assigns
   exactly what a scan from the first term would, in the same order.
   [s * rscale] compares costs without a division. *)
let scan_member t r mbase s =
  let ci = t.arena.(mbase + h_cid) in
  let base = t.obase in
  let n = Array.length base / 2 in
  let limit = s * r.rscale in
  let rec go j =
    if j < n then
      if Bytes.unsafe_get r.rout j <> '\000' then go (j + 1)
      else if base.((2 * j) + 1) > limit then begin
        let lit = Lit.of_index base.(2 * j) in
        if Value.equal (value_lit t lit) Value.Unknown then begin
          Telemetry.Counter.incr t.bstats.b_props;
          assign t lit (Implied ci)
        end;
        go (j + 1)
      end
  in
  go t.bcursor

let row_sum t r = (t.gsum - r.rx) / r.rscale

(* A row's key: [gsum] is below it exactly when the row's tightest
   member has a slack below [rmax], i.e. [(gsum - rx) / rscale - dmax <
   rmax] for the largest member degree [dmax]; [gsum - rx] is a
   multiple of [rscale], so the division is exact.  A memberless row's
   key is far below any [gsum] (which is never negative) and stays so
   as [rx] moves. *)
let no_members = -(1 lsl 61)

let row_key r =
  let m = r.rmembers in
  if Vec.size m = 0 then r.rx + no_members
  else r.rx + (r.rscale * (Vec.get m (Vec.size m - 1) + r.rmax))

(* Visit of a tight row: the members that can act join the actors, the
   tightest first.  Terms are in decreasing coefficient, so a member
   whose slack is at least c*, the coefficient of the first unassigned
   term, implies nothing: every heavier term is assigned.  Negative
   slack is below c*, so every conflict is still seen.  c* only falls
   while phase 2 assigns, so the c* read here is a safe bound for the
   phase 2 that follows. *)
let visit_tight_row t r from =
  Telemetry.Counter.incr t.bstats.b_visits;
  let sum = row_sum t r in
  let m = r.rmembers in
  let j = row_first t r from in
  let cstar = if 2 * j < Array.length t.obase then t.obase.((2 * j) + 1) / r.rscale else 0 in
  let k = ref (Vec.size m - 2) in
  while !k >= 0 && sum - Vec.unsafe_get m (!k + 1) < cstar do
    Vec.push t.actors (Vec.unsafe_get m !k);
    k := !k - 2
  done

(* The dequeue of objective term [qi] of cost [cost]: every row's sum
   falls by [cost / rscale] except those of the rows that exclude it,
   which keep theirs.  Of the rows whose sum fell, only the tight ones
   are visited; the rows that kept their sum are not visited at all,
   tight or not. *)
let dequeue_rows t qi cost =
  t.ndequeues <- t.ndequeues + 1;
  shift_rows t qi (-cost);
  let g = t.gsum and keys = t.rkeys and stamp = t.ndequeues in
  let from = ref (-1) in
  for ri = 0 to Vec.size t.rows - 1 do
    if Array.unsafe_get keys ri > g then begin
      let r = Vec.unsafe_get t.rows ri in
      if r.rskip <> stamp then begin
        if !from < 0 then from := base_cursor t;
        visit_tight_row t r !from
      end
    end
  done

(* Candidates of one dequeue are examined in ascending arena-base
   (= constraint id) order, so the trail order of the implications does
   not depend on the order of the watch lists, which watch moves
   shuffle.  Visits run in two phases: phase 1 applies every slack
   decrement and all watch maintenance (which never touches the event
   stream) in whatever order the lists are in, and collects the few
   constraints whose final slack fell below maxcoeff; phase 2 sorts that
   (almost always tiny) set and acts — conflicts and implications — in
   ascending arena order.  Lagged slacks make the two orders equivalent:
   a constraint's examined slack depends only on which literal is being
   dequeued, never on when in the dequeue it is read. *)
let push_watch t li base ti = Vec.push t.watches.(li) ((base lsl wshift) lor ti)

(* Put every term of the block on watch (including lagged-false ones,
   which contribute nothing to wslack but must be tracked so a backjump
   that revives them restores their weight).  After this the watch-set
   slack equals the lagged slack exactly.  The state is transient once
   a backjump restores enough weight that the set covers maxcoeff:
   visits shed watches again and clear the flag (see
   [process_falsified]). *)
let degrade_to_watch_all t base =
  let a = t.arena in
  a.(base + h_flags) <- a.(base + h_flags) lor flag_watch_all;
  let n = a.(base + h_n) in
  let add = ref 0 in
  for i = 0 to n - 1 do
    let cw = a.(base + hdr_size + (2 * i) + 1) in
    if cw land watch_bit = 0 then begin
      a.(base + hdr_size + (2 * i) + 1) <- cw lor watch_bit;
      push_watch t a.(base + hdr_size + (2 * i)) base i;
      if not (lagged_false t (Lit.of_index a.(base + hdr_size + (2 * i)))) then
        add := !add + cw
    end
  done;
  a.(base + h_wslack) <- a.(base + h_wslack) + !add;
  Telemetry.Counter.incr t.bstats.b_nwatchall

(* Process the dequeue of falsified literal [q].

   Phase 1 decrements the watch-set slack of every watch entry, doing
   watch maintenance as it goes: a visit whose remaining set still
   covers maxcoeff simply retires [q]; otherwise the set is extended
   with unwatched non-false terms until it covers maxcoeff again, and
   when that is impossible the constraint degrades to watch-all, at
   which point wslack is the exact lagged slack.  When [q] is an objective term it
   also moves the cut rows' sums ([dequeue_rows]).  Constraints whose
   final slack fell below maxcoeff, and the members of tight rows that
   can act, are collected.

   Phase 2 acts on the collected constraints in ascending arena order —
   the first with negative slack is the conflict, the rest propagate —
   so the enqueue order is canonical regardless of list order, and a
   conflict stops acting exactly as in a single ordered walk. *)
let process_falsified t q conflict =
  let a = t.arena in
  let qi = Lit.to_index q in
  let wlist = t.watches.(qi) in
  let actors = t.actors in
  let cost = t.lit_cost.(Lit.to_index (Lit.negate q)) in
  if cost > 0 && Vec.size t.rows > 0 then dequeue_rows t qi cost;
  (* phase 1: watch entries, compacting retirements in place *)
  let wn = Vec.size wlist in
  let wi = ref 0 and wkeep = ref 0 in
  let retain packed =
    Vec.unsafe_set wlist !wkeep packed;
    incr wkeep
  in
  while !wi < wn do
    let packed = Vec.unsafe_get wlist !wi in
    let wb = packed lsr wshift in
    let ti = packed land wmask in
    incr wi;
    Telemetry.Counter.incr t.bstats.b_visits;
    let coeff = a.(wb + hdr_size + (2 * ti) + 1) land coeff_mask in
    let ws = a.(wb + h_wslack) - coeff in
    a.(wb + h_wslack) <- ws;
    if a.(wb + h_flags) land flag_watch_all <> 0 then begin
      if ws >= a.(wb + h_max) then begin
        (* a backjump restored enough weight that the rest of the set
           covers maxcoeff again: shed this watch and leave watch-all,
           so the set recovers toward a covering prefix instead of
           visiting every term forever *)
        a.(wb + hdr_size + (2 * ti) + 1) <- coeff;
        a.(wb + h_flags) <- a.(wb + h_flags) land lnot flag_watch_all;
        Telemetry.Counter.add t.bstats.b_nwatchall (-1);
        Telemetry.Counter.incr t.bstats.b_moves
      end
      else begin
        retain packed;
        Vec.push actors wb
      end
    end
    else begin
      let mc = a.(wb + h_max) in
      if ws >= mc then begin
        (* the rest of the watch set still covers maxcoeff: retire [q] *)
        a.(wb + hdr_size + (2 * ti) + 1) <- coeff;
        Telemetry.Counter.incr t.bstats.b_moves
      end
      else begin
        let n = a.(wb + h_n) in
        let ws' = ref ws in
        let watch j cw =
          a.(wb + hdr_size + (2 * j) + 1) <- cw lor watch_bit;
          push_watch t a.(wb + hdr_size + (2 * j)) wb j;
          ws' := !ws' + cw;
          Telemetry.Counter.incr t.bstats.b_extends
        in
        (* Extend only with truly non-false replacements — a watch on a
           true or unassigned literal is not sitting in the queue about
           to trigger the next visit.  When that fails, the remaining
           weight lives in queued-false terms that are about to be
           dequeued one after another; degrading to watch-all right away
           (folding their still-counted weight into wslack, which makes
           it the exact lagged slack) turns each of those dequeues into
           an O(1) watch-all visit instead of a fresh failing scan.

           The search resumes where the last one stopped, at the
           circular cursor, so repeated visits don't rescan the
           watched-or-false prefix; which replacement is picked never
           affects the event stream. *)
        let start = a.(wb + h_cursor_or_row) in
        let start = if start >= n then 0 else start in
        let j = ref start and steps = ref n in
        while !ws' < mc && !steps > 0 do
          let cw = a.(wb + hdr_size + (2 * !j) + 1) in
          if cw land watch_bit = 0
             && Bytes.unsafe_get t.lfalse a.(wb + hdr_size + (2 * !j)) = '\000'
          then watch !j cw;
          decr steps;
          incr j;
          if !j = n then j := 0
        done;
        a.(wb + h_cursor_or_row) <- !j;
        a.(wb + h_wslack) <- !ws';
        if !ws' >= mc then begin
          a.(wb + hdr_size + (2 * ti) + 1) <- coeff;
          Telemetry.Counter.incr t.bstats.b_moves
        end
        else begin
          retain packed;
          degrade_to_watch_all t wb;
          if a.(wb + h_wslack) < mc then Vec.push actors wb
        end
      end
    end
  done;
  Vec.shrink wlist !wkeep;
  (* phase 2: act in ascending arena order.  Every incumbent adds a
     member to each source row, so a dequeue that reaches several rows
     collects interleaved descending runs: sort in O(na log na). *)
  let na = Vec.size actors in
  if na > 0 then begin
    Vec.sort_int actors;
    let k = ref 0 in
    while !conflict = None && !k < na do
      let base = Vec.unsafe_get actors !k in
      incr k;
      if a.(base + h_flags) land flag_member <> 0 then begin
        let r = Vec.unsafe_get t.rows a.(base + h_cursor_or_row) in
        let s = row_sum t r - a.(base + h_deg) in
        if s < 0 then conflict := Some a.(base + h_cid)
        else
          (* [dequeue_rows] moved the shared cursor on in phase 1 *)
          scan_member t r base s
      end
      else begin
        let s = a.(base + h_wslack) in
        if s < 0 then conflict := Some a.(base + h_cid)
        else scan_implications_arena t base s
      end
    done;
    Vec.clear actors
  end

let propagate t =
  if t.unsat then Some (-1)
  else begin
    let conflict = ref None in
    while !conflict = None && t.qhead < Vec.size t.trail do
      poll_interrupt t;
      let l = Vec.get t.trail t.qhead in
      t.qhead <- t.qhead + 1;
      process_falsified t (Lit.negate l) conflict
    done;
    (* A conflict at decision level 0 proves unsatisfiability; latch it
       here so [root_unsat] is truthful even when the caller chooses not
       to run conflict analysis (the preprocessor's probe does).  The
       lagged-slack discipline applies each decrement exactly once, so
       an unresolved conflict would otherwise never be re-detected. *)
    (match !conflict with
    | Some _ when decision_level t = 0 -> t.unsat <- true
    | Some _ | None -> ());
    !conflict
  end

(* --- storing constraints -------------------------------------------------- *)

let push_cstate t ~learned c =
  let ci = Vec.size t.constrs in
  let base = arena_alloc t ci c in
  Vec.push t.constrs { constr = c; learned; cactivity = { act = 0. }; base };
  if learned then t.nlearned <- t.nlearned + 1;
  (ci, base)

(* Watch the minimal decreasing-coefficient prefix of non-lagged-false
   terms of the unwatched block at [base] whose weight covers degree +
   maxcoeff.  When no such prefix exists the constraint goes to
   watch-all, where wslack is the exact lagged slack (a single-term
   constraint always does).  Returns wslack: a lower bound on the
   lagged slack that is only below maxcoeff when it is exact. *)
let watch_prefix t base =
  let a = t.arena in
  let n = a.(base + h_n) in
  let mc = a.(base + h_max) in
  let ws = ref (-a.(base + h_deg)) in
  let i = ref 0 in
  while !ws < mc && !i < n do
    let lit = Lit.of_index a.(base + hdr_size + (2 * !i)) in
    if not (lagged_false t lit) then begin
      let cw = a.(base + hdr_size + (2 * !i) + 1) in
      a.(base + hdr_size + (2 * !i) + 1) <- cw lor watch_bit;
      push_watch t (Lit.to_index lit) base !i;
      ws := !ws + cw
    end;
    incr i
  done;
  a.(base + h_wslack) <- !ws;
  if !ws < mc then degrade_to_watch_all t base;
  a.(base + h_wslack)

let attach_watched t ~learned c =
  let ci, base = push_cstate t ~learned c in
  Telemetry.Counter.incr t.bstats.b_nwatched;
  (ci, watch_prefix t base)

(* Learned asserting clauses skip the prefix rule: watch the asserting
   literal plus a literal of the backjump level.  Every other literal is
   false, so "all non-lagged-false terms watched" holds at attach, and
   the level pairing (any backjump popping one pops both, restoring
   wslack to watch weight 2) keeps the watch invariant across backjumps
   without ever degrading to watch-all. *)
let attach_learned_clause t c ~w1 ~w2 =
  assert (Constr.is_clause c && Array.length (Constr.terms c) >= 2 && w1 <> w2);
  let ci, base = push_cstate t ~learned:true c in
  let a = t.arena in
  let ws = ref (-a.(base + h_deg)) in
  let put i =
    let lit = Lit.of_index a.(base + hdr_size + (2 * i)) in
    let cw = a.(base + hdr_size + (2 * i) + 1) in
    a.(base + hdr_size + (2 * i) + 1) <- cw lor watch_bit;
    push_watch t (Lit.to_index lit) base i;
    if not (lagged_false t lit) then ws := !ws + cw
  in
  put w1;
  put w2;
  a.(base + h_wslack) <- !ws;
  Telemetry.Counter.incr t.bstats.b_nwatched;
  ci

let add_constraint_dynamic t c =
  let ci, s = attach_watched t ~learned:true c in
  if s < 0 then begin
    if decision_level t = 0 then t.unsat <- true;
    Some ci
  end
  else begin
    if s < Constr.max_coeff c then
      scan_implications_arena t (Vec.get t.constrs ci).base s;
    None
  end

(* --- cut rows ----------------------------------------------------------------- *)

(* The objective's normal form as (literal index, cost) pairs: each cost
   literal negated, by decreasing cost and then ascending variable —
   the term order of the knapsack row (10) and, since dividing by a
   common factor keeps it, of every row cut from it.  Built at the
   first cut; empty for a satisfaction problem. *)
let row_base t =
  if Array.length t.excl = 0 then begin
    let costs =
      match Problem.objective t.problem with
      | None -> [||]
      | Some o -> Array.copy o.cost_terms
    in
    Array.sort
      (fun (x : Problem.cost_term) (y : Problem.cost_term) ->
        if x.cost <> y.cost then compare y.cost x.cost else compare (Lit.var x.lit) (Lit.var y.lit))
      costs;
    t.obase <- Array.make (2 * Array.length costs) 0;
    Array.iteri
      (fun i (ct : Problem.cost_term) ->
        t.obase.(2 * i) <- Lit.to_index (Lit.negate ct.lit);
        t.obase.((2 * i) + 1) <- ct.cost)
      costs;
    t.excl <- Array.make (Array.length t.lit_cost) []
  end;
  t.obase

(* [c] as a row: its terms must be those of the objective's normal form
   minus some excluded terms, in the same order, each coefficient the
   term's cost over one factor.  Returns that factor and the excluded
   positions of the normal form. *)
let row_shape t c =
  let base = row_base t in
  let terms = Constr.terms c in
  let n = Array.length terms in
  let rec go i j scale excluded =
    if 2 * i = Array.length base then if j = n && scale > 0 then Some (scale, excluded) else None
    else begin
      let li = base.(2 * i) and cost = base.((2 * i) + 1) in
      if j < n && Lit.to_index terms.(j).Constr.lit = li then begin
        let coeff = terms.(j).Constr.coeff in
        if cost mod coeff <> 0 || (scale > 0 && cost / coeff <> scale) then None
        else go (i + 1) (j + 1) (cost / coeff) excluded
      end
      else go (i + 1) j scale (i :: excluded)
    end
  in
  go 0 0 0 []

let new_row t c scale excluded =
  let base = t.obase in
  let ri = Vec.size t.rows in
  (* [gsum] is kept from the first row on *)
  if ri = 0 then
    for i = 0 to (Array.length base / 2) - 1 do
      if not (lagged_false t (Lit.of_index base.(2 * i))) then t.gsum <- t.gsum + base.((2 * i) + 1)
    done;
  let rout = Bytes.make (Array.length base / 2) '\000' in
  let rx =
    List.fold_left
      (fun acc i ->
        let li = base.(2 * i) in
        Bytes.set rout i '\001';
        t.excl.(li) <- ri :: t.excl.(li);
        if lagged_false t (Lit.of_index li) then acc else acc + base.((2 * i) + 1))
      0 excluded
  in
  let r =
    {
      rconstr = c;
      rout;
      rmax = Constr.max_coeff c;
      rscale = scale;
      rx;
      rskip = 0;
      rmembers = Vec.create ~capacity:8 ~dummy:0 ();
    }
  in
  Vec.push t.rows r;
  if ri >= Array.length t.rkeys then begin
    let keys = Array.make (max 8 (2 * ri)) 0 in
    Array.blit t.rkeys 0 keys 0 ri;
    t.rkeys <- keys
  end;
  t.rkeys.(ri) <- row_key r;
  ri

(* [c]'s terms are the row's; its stored form shares the row's array. *)
let add_member t ri c =
  let r = Vec.get t.rows ri in
  let degree = Constr.degree c in
  let constr =
    if Constr.terms c == Constr.terms r.rconstr then c else Constr.with_degree r.rconstr degree
  in
  let ci = Vec.size t.constrs in
  arena_ensure t hdr_size;
  let base = t.arena_top in
  t.arena_top <- t.arena_top + hdr_size;
  let a = t.arena in
  a.(base + h_cid) <- ci;
  a.(base + h_n) <- 0;
  a.(base + h_deg) <- degree;
  a.(base + h_max) <- r.rmax;
  a.(base + h_cursor_or_row) <- ri;
  a.(base + h_wslack) <- 0;
  a.(base + h_flags) <- flag_member;
  Vec.push t.constrs { constr; learned = true; cactivity = { act = 0. }; base };
  t.nlearned <- t.nlearned + 1;
  let m = r.rmembers in
  (* insert in ascending degree; cuts tighten, so this is an append *)
  Vec.push m 0;
  Vec.push m 0;
  let k = ref (Vec.size m - 2) in
  while !k > 0 && Vec.get m (!k - 1) > degree do
    Vec.set m !k (Vec.get m (!k - 2));
    Vec.set m (!k + 1) (Vec.get m (!k - 1));
    k := !k - 2
  done;
  Vec.set m !k base;
  Vec.set m (!k + 1) degree;
  t.rkeys.(ri) <- row_key r;
  let s = row_sum t r - degree in
  if s < 0 then begin
    if decision_level t = 0 then t.unsat <- true;
    Some ci
  end
  else begin
    if s < r.rmax then begin
      ignore (base_cursor t);
      scan_member t r base s
    end;
    None
  end

let add_cut t ?row c =
  match row with
  | Some ri
    when let rc = (Vec.get t.rows ri).rconstr in
         Constr.terms rc == Constr.terms c || Constr.terms rc = Constr.terms c ->
    row, add_member t ri c
  | Some _ | None -> (
    match row_shape t c with
    | Some (scale, excluded) ->
      let ri = new_row t c scale excluded in
      Some ri, add_member t ri c
    | None -> None, add_constraint_dynamic t c)

(* --- activities ----------------------------------------------------------- *)

let var_decay = 1. /. 0.95
let cla_decay = 1. /. 0.999

let bump_var_activity t v =
  let a = Idheap.priority t.heap v +. t.inc.var_inc in
  Idheap.update t.heap v a;
  if a > 1e100 then begin
    Idheap.rescale t.heap 1e-100;
    t.inc.var_inc <- t.inc.var_inc *. 1e-100
  end

let decay_var_activity t = t.inc.var_inc <- t.inc.var_inc *. var_decay

let bump_cla_activity t ci =
  let a = (Vec.get t.constrs ci).cactivity in
  a.act <- a.act +. t.inc.cla_inc;
  if a.act > 1e20 then begin
    Vec.iter (fun c -> c.cactivity.act <- c.cactivity.act *. 1e-20) t.constrs;
    t.inc.cla_inc <- t.inc.cla_inc *. 1e-20
  end

let decay_cla_activity t = t.inc.cla_inc <- t.inc.cla_inc *. cla_decay

(* --- conflict analysis ----------------------------------------------------- *)

(* Certificates.  A constraint [sum a_i l_i >= d] whose false literals
   weigh more than its [excess = sum a_i - d] cannot be satisfied, so it
   entails the clause "one of them is true".  A certificate walks the
   terms in their order (decreasing coefficient) and takes every usable
   literal until the weight taken exceeds [excess]: term [i] is looked
   at while the weight taken before it is at most [excess].  A literal
   is usable when it is false and was assigned before trail position
   [p_pos].

   A violation certificate (of a conflicting constraint) has no position
   limit.  An implication certificate for the true literal [p] leaves
   [p]'s own term out of [excess] and takes only literals assigned
   before [p]: any model of the constraint in which they are all false
   sets [p] true.  The position limit keeps first-UIP resolution
   well-founded: at [p]'s propagation the slack condition held with
   exactly the literals falsified so far, so enough weight is always
   there.  [p] itself is true, so never usable. *)
let[@inline] usable t lit p_pos =
  Bytes.unsafe_get t.lfalse (Lit.to_index lit) <> '\000' && t.var_pos.(Lit.var lit) < p_pos

(* Index past the last term the certificate over [terms] looks at. *)
let certificate_end t terms excess p_pos =
  let n = Array.length terms in
  let i = ref 0 and w = ref 0 in
  while !i < n && !w <= excess do
    let { Constr.coeff; lit } = Array.unsafe_get terms !i in
    if usable t lit p_pos then w := !w + coeff;
    incr i
  done;
  !i

(* A constraint of degree 1 is a clause, all of whose coefficients are
   1 (saturation): its excess needs no pass over the terms. *)
let violation_excess c =
  if Constr.degree c = 1 then Constr.size c - 1 else Constr.coeff_sum c - Constr.degree c

(* [p] is a term of [c]: the literal [c] implied. *)
let implication_excess c p =
  if Constr.degree c = 1 then Constr.size c - 2
  else begin
    let terms = Constr.terms c in
    let s = ref (-Constr.degree c) in
    for i = 0 to Array.length terms - 1 do
      let { Constr.coeff; lit } = Array.unsafe_get terms i in
      if not (Lit.equal lit p) then s := !s + coeff
    done;
    !s
  end

(* Mark [l] for the first-UIP walk at level [dl]: on the first visit of
   a variable above level 0, bump it and return 1 when it is of level
   [dl] (it will be resolved), or push [l] on [learnt] and return 0. *)
let mark t dl l =
  let v = Lit.var l in
  if (not t.seen.(v)) && t.var_level.(v) > 0 then begin
    t.seen.(v) <- true;
    Vec.push t.to_clear v;
    bump_var_activity t v;
    if t.var_level.(v) = dl then 1
    else begin
      Vec.push t.learnt l;
      0
    end
  end
  else 0

(* Mark the implication certificate of [p] by reason [ci], last taken
   literal first; returns the number of current-level literals. *)
let mark_implication t dl ci p =
  let c = (Vec.get t.constrs ci).constr in
  let terms = Constr.terms c in
  let p_pos = t.var_pos.(Lit.var p) in
  let k = certificate_end t terms (implication_excess c p) p_pos in
  let n = ref 0 in
  for i = k - 1 downto 0 do
    let lit = (Array.unsafe_get terms i).Constr.lit in
    if usable t lit p_pos then n := !n + mark t dl lit
  done;
  !n

(* Local clause minimization: a lower-level literal [l] is redundant
   when the implication certificate of its (true) negation rests
   entirely on literals still marked seen (i.e. already in the clause)
   or fixed at level 0; the walk stops at the first literal that is
   neither.  Certificates only use literals assigned before [~l], so
   they can never mention current-level variables whose marks were
   cleared during the walk. *)
let redundant t l =
  match t.var_reason.(Lit.var l) with
  | Decision -> false
  | Implied ci ->
    let c = (Vec.get t.constrs ci).constr in
    let terms = Constr.terms c in
    let p = Lit.negate l in
    let p_pos = t.var_pos.(Lit.var p) in
    let excess = implication_excess c p in
    let n = Array.length terms in
    let i = ref 0 and w = ref 0 and covered = ref true in
    while !covered && !i < n && !w <= excess do
      let { Constr.coeff; lit } = Array.unsafe_get terms !i in
      if usable t lit p_pos then begin
        let v = Lit.var lit in
        if t.seen.(v) || t.var_level.(v) = 0 then w := !w + coeff else covered := false
      end;
      incr i
    done;
    !covered

(* First-UIP analysis over the initial conflict clause in [alits], whose
   literals are all false under the current assignment.  Learns the
   asserting clause, backjumps and asserts the UIP.  The initial clause
   may lack literals at the current decision level (bound conflicts): we
   first backjump to the deepest level it mentions.  The walk runs over
   the reused [seen] marks and the [to_clear] / [learnt] buffers; only
   the learned clause is allocated. *)
let analyze_false_clause t =
  Telemetry.Counter.incr t.stats.conflicts;
  decay_var_activity t;
  decay_cla_activity t;
  let lits = t.alits in
  let max_level = ref 0 in
  for i = 0 to Vec.size lits - 1 do
    let lv = t.var_level.(Lit.var (Vec.get lits i)) in
    if lv > !max_level then max_level := lv
  done;
  if !max_level = 0 then begin
    t.unsat <- true;
    Root_conflict
  end
  else begin
    if !max_level < decision_level t then backjump_to t !max_level;
    let dl = decision_level t in
    let counter = ref 0 in
    for i = 0 to Vec.size lits - 1 do
      counter := !counter + mark t dl (Vec.get lits i)
    done;
    (* Walk the trail backwards resolving out current-level literals until
       a single one (the first UIP) remains. *)
    let trail_idx = ref (Vec.size t.trail - 1) in
    let uip = ref dummy_lit in
    let continue = ref true in
    while !continue do
      while not t.seen.(Lit.var (Vec.get t.trail !trail_idx)) do
        decr trail_idx
      done;
      let p = Vec.get t.trail !trail_idx in
      decr trail_idx;
      t.seen.(Lit.var p) <- false;
      decr counter;
      if !counter = 0 then begin
        uip := p;
        continue := false
      end
      else begin
        match t.var_reason.(Lit.var p) with
        | Decision ->
          (* The decision of the current level is always a UIP, so the
             counter must reach zero before we ever expand a decision. *)
          assert false
        | Implied ci ->
          bump_cla_activity t ci;
          counter := !counter + mark_implication t dl ci p
      end
    done;
    (* The clause is the asserting literal and the literals of [learnt]
       that are not redundant; the proof log lists them last marked
       first, behind the asserting literal. *)
    let asserting = Lit.negate !uip in
    let lbuf = t.lbuf in
    Vec.clear lbuf;
    Vec.push lbuf (Lit.to_index asserting);
    let back_level = ref 0 in
    for i = 0 to Vec.size t.learnt - 1 do
      let l = Vec.get t.learnt i in
      if not (redundant t l) then begin
        Vec.push lbuf (Lit.to_index l);
        let lv = t.var_level.(Lit.var l) in
        if lv > !back_level then back_level := lv
      end
    done;
    for i = 0 to Vec.size t.to_clear - 1 do
      t.seen.(Vec.get t.to_clear i) <- false
    done;
    Vec.clear t.to_clear;
    Vec.clear t.learnt;
    let back_level = !back_level in
    let size = Vec.size lbuf in
    let logged =
      match t.on_learned with
      | None -> []
      | Some _ ->
        let rec collect i acc =
          if i = size then acc else collect (i + 1) (Lit.of_index (Vec.get lbuf i) :: acc)
        in
        asserting :: collect 1 []
    in
    Telemetry.Histogram.observe t.stats.backjump_len (dl - back_level);
    backjump_to t back_level;
    (* The seen marks keep the variables distinct, so the literals in
       ascending order are the clause's normal form. *)
    Vec.sort_int lbuf;
    let c = Constr.clause_init size (fun i -> Lit.of_index (Vec.unsafe_get lbuf i)) in
    Telemetry.Counter.incr t.stats.learned_total;
    Telemetry.Histogram.observe t.stats.learned_size size;
    let terms = Constr.terms c in
    let ci =
      if size < 2 then fst (attach_watched t ~learned:true c)
      else begin
        (* watch the asserting literal and a literal of the backjump
           level: both become unassigned together on any later
           backjump, preserving the watch invariant *)
        let wa = ref 0 in
        while not (Lit.equal terms.(!wa).Constr.lit asserting) do
          incr wa
        done;
        let wb = ref 0 in
        while
          let l = terms.(!wb).Constr.lit in
          Lit.equal l asserting || t.var_level.(Lit.var l) <> back_level
        do
          incr wb
        done;
        attach_learned_clause t c ~w1:!wa ~w2:!wb
      end
    in
    bump_cla_activity t ci;
    (match t.on_learned with Some f -> f logged | None -> ());
    assign t asserting (Implied ci);
    Backjump { level = back_level; asserting = Some asserting }
  end

(* The violation certificate of [ci] becomes the initial clause, last
   taken literal first. *)
let analyze t ci =
  bump_cla_activity t ci;
  let c = (Vec.get t.constrs ci).constr in
  let terms = Constr.terms c in
  let k = certificate_end t terms (violation_excess c) max_int in
  Vec.clear t.alits;
  for i = k - 1 downto 0 do
    let lit = (Array.unsafe_get terms i).Constr.lit in
    if usable t lit max_int then Vec.push t.alits lit
  done;
  analyze_false_clause t

let learn_false_clause t lits =
  assert (List.for_all (fun l -> Value.equal (value_lit t l) Value.False) lits);
  Vec.clear t.alits;
  List.iter (Vec.push t.alits) lits;
  analyze_false_clause t

(* --- bound-conflict explanations ------------------------------------------ *)

(* [omega_marks] holds one byte per literal index, all zero between
   calls; [omega_lo] and [omega_hi] bound the indices marked so far. *)
let omega_mark t li =
  Bytes.unsafe_set t.omega_marks li '\001';
  if li < t.omega_lo then t.omega_lo <- li;
  if li > t.omega_hi then t.omega_hi <- li

let omega_mark_false t keep terms =
  for i = 0 to Array.length terms - 1 do
    let lit = (Array.unsafe_get terms i).Constr.lit in
    let li = Lit.to_index lit in
    if
      Bytes.unsafe_get t.lfalse li <> '\000'
      && match keep with None -> true | Some f -> f lit
    then omega_mark t li
  done

let rec omega_mark_cids t keep = function
  | [] -> ()
  | ci :: rest ->
    omega_mark_false t keep (Constr.terms (Vec.get t.constrs ci).constr);
    omega_mark_cids t keep rest

let rec omega_mark_cuts t keep = function
  | [] -> ()
  | c :: rest ->
    omega_mark_false t keep (Constr.terms c);
    omega_mark_cuts t keep rest

(* The marked span is scanned downwards, so consing leaves the literals
   ascending: the order [List.sort_uniq Lit.compare] gives, which the
   proof log writes. *)
let omega t ?keep ~path cids cuts =
  omega_mark_cids t keep cids;
  omega_mark_cuts t keep cuts;
  (if path then
     match Problem.objective t.problem with
     | None -> ()
     | Some o ->
       let cost_terms = o.cost_terms in
       for i = 0 to Array.length cost_terms - 1 do
         let li = Lit.to_index (Lit.negate cost_terms.(i).Problem.lit) in
         if Bytes.unsafe_get t.lfalse li <> '\000' then omega_mark t li
       done);
  let acc = ref [] in
  for li = t.omega_hi downto t.omega_lo do
    if Bytes.unsafe_get t.omega_marks li <> '\000' then begin
      Bytes.unsafe_set t.omega_marks li '\000';
      acc := Lit.of_index li :: !acc
    end
  done;
  t.omega_lo <- max_int;
  t.omega_hi <- -1;
  !acc

(* --- branching ------------------------------------------------------------ *)

let next_branch_var t =
  let rec go () =
    if Idheap.is_empty t.heap then None
    else begin
      let v = Idheap.pop_max t.heap in
      if Value.equal t.value.(v) Value.Unknown then Some v else go ()
    end
  in
  go ()

let phase_hint t v = t.phase.(v)
let set_default_phase t v b = t.phase.(v) <- b

(* --- lower-bounding view ---------------------------------------------------- *)

type active = {
  acid : cid;
  aterms : (int * Lit.t) list;
  aresidual : int;
}

let active_of_cstate t ci cs =
  if cs.learned then None
  else begin
    let true_weight = ref 0 in
    let unassigned = ref [] in
    let examine { Constr.coeff; lit } =
      match value_lit t lit with
      | Value.True -> true_weight := !true_weight + coeff
      | Value.False -> ()
      | Value.Unknown -> unassigned := (coeff, lit) :: !unassigned
    in
    Array.iter examine (Constr.terms cs.constr);
    let residual = Constr.degree cs.constr - !true_weight in
    if residual <= 0 then None else Some { acid = ci; aterms = !unassigned; aresidual = residual }
  end

let active_constraints t =
  let collect i acc =
    match active_of_cstate t i (Vec.get t.constrs i) with
    | None -> acc
    | Some a -> a :: acc
  in
  let rec go i acc = if i < 0 then acc else go (i - 1) (collect i acc) in
  go (Vec.size t.constrs - 1) []

(* Non-learned lower-bound-eligible constraints with their cids.  Only
   learned constraints are ever dropped by [reduce_db], and problem
   constraints are loaded before any learned one, so these cids are
   stable for the lifetime of the solver — the contract the incremental
   LP relies on. *)
let lb_constraints t =
  let acc = ref [] in
  Vec.iteri
    (fun ci cs -> if not cs.learned then acc := (ci, cs.constr) :: !acc)
    t.constrs;
  List.rev !acc

let unassigned_cost_terms t =
  match Problem.objective t.problem with
  | None -> []
  | Some o ->
    let collect acc (ct : Problem.cost_term) =
      if Value.equal (value_lit t ct.lit) Value.Unknown then (ct.cost, ct.lit) :: acc else acc
    in
    Array.fold_left collect [] o.cost_terms

let true_cost_lits t =
  match Problem.objective t.problem with
  | None -> []
  | Some o ->
    let collect acc (ct : Problem.cost_term) =
      if Value.equal (value_lit t ct.lit) Value.True then ct.lit :: acc else acc
    in
    Array.fold_left collect [] o.cost_terms

(* --- learned-database reduction --------------------------------------------- *)

let num_learned t = t.nlearned

(* Rebuild the store without the dropped constraints.  Constraint ids
   change, so reasons on the trail are remapped; locked constraints
   (reasons of current assignments) are always kept. *)
let reduce_db t =
  let n = Vec.size t.constrs in
  let locked = Array.make n false in
  let note_reason l =
    match t.var_reason.(Lit.var l) with
    | Decision -> ()
    | Implied ci -> locked.(ci) <- true
  in
  Vec.iter note_reason t.trail;
  let learned_idx = ref [] in
  let note i cs = if cs.learned && not locked.(i) then learned_idx := i :: !learned_idx in
  Vec.iteri note t.constrs;
  let by_activity i j =
    compare (Vec.get t.constrs i).cactivity.act (Vec.get t.constrs j).cactivity.act
  in
  let victims = List.sort by_activity !learned_idx in
  let ndrop = List.length victims / 2 in
  let dropped = Array.make n false in
  List.iteri (fun k i -> if k < ndrop then dropped.(i) <- true) victims;
  (* Members leave their rows with their constraints; the survivors'
     entries hold their old cid until the arena has been compacted. *)
  let a = t.arena in
  Vec.iteri
    (fun ri r ->
      let m = r.rmembers in
      let keep = ref 0 in
      let k = ref 0 in
      while !k < Vec.size m do
        let ci = a.(Vec.get m !k + h_cid) in
        if not dropped.(ci) then begin
          Vec.set m !keep ci;
          Vec.set m (!keep + 1) (Vec.get m (!k + 1));
          keep := !keep + 2
        end;
        k := !k + 2
      done;
      Vec.shrink m !keep;
      t.rkeys.(ri) <- row_key r)
    t.rows;
  let remap = Array.make n (-1) in
  let kept = Vec.create ~dummy:dummy_cstate () in
  let keep i cs =
    if not dropped.(i) then begin
      remap.(i) <- Vec.size kept;
      Vec.push kept cs
    end
  in
  Vec.iteri keep t.constrs;
  Vec.clear t.constrs;
  Vec.iter (Vec.push t.constrs) kept;
  t.nlearned <- Vec.fold (fun acc cs -> if cs.learned then acc + 1 else acc) 0 t.constrs;
  (* Slide surviving arena blocks left, in order — sources are ascending
     and destinations never overtake them, so the in-place blits are
     safe.  Ids are rewritten in the headers as the blocks move. *)
  let top = ref 0 in
  Vec.iteri
    (fun i cs ->
      let len = hdr_size + (2 * a.(cs.base + h_n)) in
      if cs.base <> !top then Array.blit a cs.base a !top len;
      cs.base <- !top;
      a.(!top + h_cid) <- i;
      top := !top + len)
    t.constrs;
  t.arena_top <- !top;
  Vec.iter
    (fun r ->
      let m = r.rmembers in
      let k = ref 0 in
      while !k < Vec.size m do
        Vec.set m !k (Vec.get t.constrs remap.(Vec.get m !k)).base;
        k := !k + 2
      done)
    t.rows;
  Array.iter Vec.clear t.watches;
  (* Re-register every constraint: a surviving watched constraint keeps
     its (still valid) watch set, but one that degraded to watch-all
     gets a fresh chance at a covering prefix. *)
  let nwatched = ref 0 and nwatchall = ref 0 in
  let register_watch_bits base =
    (* keep the current watch set; recompute its slack from the bits *)
    let nterms = a.(base + h_n) in
    let ws = ref (-a.(base + h_deg)) in
    for i = 0 to nterms - 1 do
      let cw = a.(base + hdr_size + (2 * i) + 1) in
      if cw land watch_bit <> 0 then begin
        let lit = Lit.of_index a.(base + hdr_size + (2 * i)) in
        push_watch t (Lit.to_index lit) base i;
        if not (lagged_false t lit) then ws := !ws + (cw land coeff_mask)
      end
    done;
    a.(base + h_wslack) <- !ws
  in
  let register_fresh base =
    for i = 0 to a.(base + h_n) - 1 do
      a.(base + hdr_size + (2 * i) + 1) <- a.(base + hdr_size + (2 * i) + 1) land coeff_mask
    done;
    a.(base + h_flags) <- 0;
    ignore (watch_prefix t base)
  in
  Vec.iter
    (fun cs ->
      let base = cs.base in
      let flags = a.(base + h_flags) in
      if flags land flag_member = 0 then begin
        if flags land flag_watch_all = 0 then register_watch_bits base else register_fresh base;
        incr nwatched;
        if a.(base + h_flags) land flag_watch_all <> 0 then incr nwatchall
      end)
    t.constrs;
  Telemetry.Counter.set t.bstats.b_nwatched !nwatched;
  Telemetry.Counter.set t.bstats.b_nwatchall !nwatchall;
  for v = 0 to t.nvars - 1 do
    match t.var_reason.(v) with
    | Decision -> ()
    | Implied ci ->
      if Value.equal t.value.(v) Value.Unknown then t.var_reason.(v) <- Decision
      else begin
        assert (remap.(ci) >= 0);
        t.var_reason.(v) <- Implied remap.(ci)
      end
  done

(* --- creation ----------------------------------------------------------------- *)

let create ?telemetry p =
  let tel = match telemetry with Some tel -> tel | None -> Telemetry.Ctx.silent () in
  let nvars = max (Problem.nvars p) 1 in
  let arena_guess =
    Array.fold_left
      (fun acc c -> acc + hdr_size + (2 * Constr.size c))
      1024 (Problem.constraints p)
  in
  let t =
    {
      problem = p;
      nvars = Problem.nvars p;
      value = Array.make nvars Value.Unknown;
      var_level = Array.make nvars 0;
      var_reason = Array.make nvars Decision;
      var_pos = Array.make nvars 0;
      trail = Vec.create ~dummy:dummy_lit ();
      trail_lim = Vec.create ~dummy:0 ();
      qhead = 0;
      constrs = Vec.create ~dummy:dummy_cstate ();
      arena = Array.make arena_guess 0;
      arena_top = 0;
      rows = Vec.create ~dummy:dummy_row ();
      obase = [||];
      bcursor = 0;
      bmarks = Vec.create ~dummy:0 ();
      btop = 0;
      gsum = 0;
      excl = [||];
      rkeys = [||];
      ndequeues = 0;
      watches = Array.init (2 * nvars) (fun _ -> Vec.create ~dummy:0 ());
      lfalse = Bytes.make (2 * nvars) '\000';
      actors = Vec.create ~dummy:0 ();
      level_ids = Vec.create ~dummy:0 ();
      ndecisions = 0;
      nlearned = 0;
      lit_cost = Array.make (2 * nvars) 0;
      path = 0;
      heap = Idheap.create nvars;
      inc = { var_inc = 1.; cla_inc = 1. };
      phase = Array.make nvars false;
      seen = Array.make nvars false;
      alits = Vec.create ~dummy:dummy_lit ();
      learnt = Vec.create ~dummy:dummy_lit ();
      lbuf = Vec.create ~dummy:0 ();
      to_clear = Vec.create ~dummy:0 ();
      omega_marks = Bytes.make (2 * nvars) '\000';
      omega_lo = max_int;
      omega_hi = -1;
      unsat = Problem.trivially_unsat p;
      epoch = 0;
      changed = Vec.create ~dummy:0 ();
      changed_mark = Array.make nvars false;
      stats = stats_of_registry tel.Telemetry.Ctx.registry;
      bstats = bcp_stats_of_registry tel.Telemetry.Ctx.registry;
      tel;
      interrupt_check = None;
      interrupted = false;
      interrupt_fuel = interrupt_poll_period;
      on_learned = None;
    }
  in
  (match Problem.objective p with
  | None -> ()
  | Some o ->
    let install (ct : Problem.cost_term) =
      t.lit_cost.(Lit.to_index ct.lit) <- ct.cost;
      (* Prefer the polarity that pays nothing. *)
      t.phase.(Lit.var ct.lit) <- not (Lit.is_pos ct.lit)
    in
    Array.iter install o.cost_terms);
  for v = 0 to t.nvars - 1 do
    Idheap.insert t.heap v
  done;
  let load c =
    let ci, s = attach_watched t ~learned:false c in
    (* the lagged slack ignores units still pending in the load queue;
       checking the value-based slack too keeps [root_unsat] exact right
       after [create] *)
    if s < 0 || Constr.slack_under (value_lit t) c < 0 then t.unsat <- true
    else if s < Constr.max_coeff c then
      scan_implications_arena t (Vec.get t.constrs ci).base s
  in
  Array.iter load (Problem.constraints p);
  t

let constr_of t ci = (Vec.get t.constrs ci).constr

let trail t =
  List.init (Vec.size t.trail) (fun i ->
      let l = Vec.get t.trail i in
      match t.var_reason.(Lit.var l) with Decision -> l, None | Implied ci -> l, Some ci)

let iter_trail_from t i f =
  for i = i to Vec.size t.trail - 1 do
    f (Vec.get t.trail i)
  done

let iter_trail_above t lvl f =
  if lvl < decision_level t then iter_trail_from t (Vec.get t.trail_lim lvl) f

let probe t ~stop ~failed ~implied =
  assert (decision_level t = 0);
  let try_lit l =
    if Value.equal (value_lit t l) Value.Unknown && not (t.unsat || stop ()) then begin
      decide t l;
      match propagate t with
      | Some _ ->
        backjump_to t 0;
        failed l
      | None ->
        implied l;
        backjump_to t 0
    end
  in
  if propagate t = None then
    for v = 0 to t.nvars - 1 do
      try_lit (Lit.make v true);
      try_lit (Lit.make v false)
    done

let decisions t =
  List.init (decision_level t) (fun lvl -> Vec.get t.trail (Vec.get t.trail_lim lvl))

(* Value-based slack.  The arena keeps *lagged* watch-set slacks: at a
   propagation fixpoint one is at most this, and equal to it when it is
   below maxcoeff.  Cold path: conflict resolution and tests. *)
let slack_of t ci = Constr.slack_under (value_lit t) (Vec.get t.constrs ci).constr

let rec resolve_conflict t ci =
  match analyze t ci with
  | Root_conflict -> Root_conflict
  | Backjump _ as b -> if slack_of t ci < 0 then resolve_conflict t ci else b

let iter_constraints t f = Vec.iter (fun cs -> f ~learned:cs.learned cs.constr) t.constrs

(* --- cutting-planes resolution (Galena-style learning) --------------------- *)

(* Working representation of a PB constraint under construction: at most
   one polarity per variable, positive coefficients, explicit degree. *)
module Cp = struct
  type cp = {
    coeffs : (Lit.t, int) Hashtbl.t;
    mutable degree : int;
  }

  let of_constr c =
    let coeffs = Hashtbl.create 32 in
    Array.iter (fun { Constr.coeff; lit } -> Hashtbl.replace coeffs lit coeff) (Constr.terms c);
    { coeffs; degree = Constr.degree c }

  let copy g = { coeffs = Hashtbl.copy g.coeffs; degree = g.degree }

  (* Add [c * l], merging an opposite-polarity occurrence:
     [c1 l + c2 ~l = min c1 c2 + (c1 - c2) l]. *)
  let rec add_term g l c =
    let neg = Lit.negate l in
    match Hashtbl.find_opt g.coeffs neg with
    | None ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt g.coeffs l) in
      if cur + c = 0 then Hashtbl.remove g.coeffs l else Hashtbl.replace g.coeffs l (cur + c)
    | Some c2 ->
      if c2 > c then begin
        Hashtbl.replace g.coeffs neg (c2 - c);
        g.degree <- g.degree - c
      end
      else begin
        Hashtbl.remove g.coeffs neg;
        g.degree <- g.degree - c2;
        if c2 < c then add_term g l (c - c2)
      end

  let add_scaled g k c =
    Array.iter (fun { Constr.coeff; lit } -> add_term g lit (k * coeff)) (Constr.terms c);
    g.degree <- g.degree + (k * Constr.degree c)

  let add_scaled_clause g k lits =
    List.iter (fun l -> add_term g l k) lits;
    g.degree <- g.degree + k

  let saturate g =
    if g.degree > 0 then
      Hashtbl.iter
        (fun l c -> if c > g.degree then Hashtbl.replace g.coeffs l g.degree)
        (Hashtbl.copy g.coeffs)

  let slack t g =
    let s = ref (-g.degree) in
    Hashtbl.iter
      (fun l c ->
        match value_lit t l with
        | Value.False -> ()
        | Value.True | Value.Unknown -> s := !s + c)
      g.coeffs;
    !s

  let size g = Hashtbl.length g.coeffs
  let coeff_of g l = Option.value ~default:0 (Hashtbl.find_opt g.coeffs l)

  let to_norm g =
    let raw = Hashtbl.fold (fun l c acc -> (c, l) :: acc) g.coeffs [] in
    Constr.make_ge raw g.degree
end

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let derive_pb_resolvent t ci =
  let size_limit = 150 in
  let degree_limit = 1 lsl 30 in
  let g = Cp.of_constr (Vec.get t.constrs ci).constr in
  let give_up = ref false in
  let dl = decision_level t in
  let false_at_dl () =
    Hashtbl.fold
      (fun l _ acc ->
        if Value.equal (value_lit t l) Value.False && t.var_level.(Lit.var l) = dl then acc + 1
        else acc)
      g.Cp.coeffs 0
  in
  let i = ref (Vec.size t.trail - 1) in
  let continue = ref true in
  while !continue && not !give_up do
    if false_at_dl () <= 1 then continue := false
    else begin
      (* topmost trail literal whose negation occurs in the resolvent *)
      while !i >= 0 && Cp.coeff_of g (Lit.negate (Vec.get t.trail !i)) = 0 do
        decr i
      done;
      if !i < 0 then continue := false
      else begin
        let p = Vec.get t.trail !i in
        decr i;
        match t.var_reason.(Lit.var p) with
        | Decision -> continue := false
        | Implied rci ->
          let r = (Vec.get t.constrs rci).constr in
          let a = Cp.coeff_of g (Lit.negate p) in
          let b =
            Array.fold_left
              (fun acc { Constr.coeff; lit } -> if Lit.equal lit p then coeff else acc)
              0 (Constr.terms r)
          in
          assert (a > 0 && b > 0);
          (* multipliers to the lcm of [a] and [b], computed without
             forming the lcm itself, which can overflow *)
          let gab = gcd_int a b in
          let ka = b / gab and kb = a / gab in
          (* Coefficients reach 2^40 and so do the multipliers.  [g] and
             [r] are saturated with a positive degree (no coefficient
             above it), so bounding each scaled degree by the degree limit
             bounds every product before it is formed: give up rather
             than let one wrap. *)
          let fits k d = k = 1 || d <= degree_limit / k in
          if not (fits ka g.Cp.degree && fits kb (Constr.degree r)) then give_up := true
          else begin
            let candidate = Cp.copy g in
            (* scale the resolvent itself *)
            if ka > 1 then begin
              Hashtbl.iter
                (fun l c -> Hashtbl.replace candidate.Cp.coeffs l (c * ka))
                (Hashtbl.copy candidate.Cp.coeffs);
              candidate.Cp.degree <- candidate.Cp.degree * ka
            end;
            Cp.add_scaled candidate kb r;
            Cp.saturate candidate;
            if Cp.slack t candidate < 0 then begin
              Hashtbl.reset g.Cp.coeffs;
              Hashtbl.iter (Hashtbl.replace g.Cp.coeffs) candidate.Cp.coeffs;
              g.Cp.degree <- candidate.Cp.degree
            end
            else begin
              (* weaken the reason to its certificate clause: adding
                 [a * (p ∨ certificate)] cancels ~p exactly and the clause
                 has slack 0, so the conflict is preserved *)
              let terms = Constr.terms r in
              let p_pos = t.var_pos.(Lit.var p) in
              let k = certificate_end t terms (implication_excess r p) p_pos in
              let cert = ref [] in
              for i = 0 to k - 1 do
                let lit = terms.(i).Constr.lit in
                if usable t lit p_pos then cert := lit :: !cert
              done;
              Cp.add_scaled_clause g a (p :: !cert);
              Cp.saturate g
            end;
            if Cp.size g > size_limit || g.Cp.degree > degree_limit || g.Cp.degree <= 0 then
              give_up := true
          end
      end
    end
  done;
  if !give_up then None
  else begin
    match Cp.to_norm g with
    | Constr.Constr c when Constr.slack_under (value_lit t) c < 0 -> Some c
    | Constr.Constr _ | Constr.Trivial_true -> None
    | Constr.Trivial_false ->
      (* the store derives falsum: the instance (under the current learned
         context) admits no solution; signalling via None keeps the caller
         on the regular analysis path, which will reach the same verdict *)
      None
  end

let check_invariants t =
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let a = t.arena in
  (* Arena bookkeeping, valid at every moment: watch-set slacks must
     equal their lagged recomputation, and the header must agree with
     the boxed constraint. *)
  let nmembers = ref 0 and nlearned = ref 0 in
  let nwatched = ref 0 and nwatchall = ref 0 in
  Vec.iteri
    (fun ci cs ->
      let base = cs.base in
      let terms = Constr.terms cs.constr in
      let n = a.(base + h_n) in
      let flags = a.(base + h_flags) in
      if cs.learned then incr nlearned;
      if flags land flag_member = 0 then begin
        incr nwatched;
        if flags land flag_watch_all <> 0 then incr nwatchall
      end;
      if a.(base + h_cid) <> ci then fail "constraint %d: arena cid %d" ci a.(base + h_cid);
      if flags land flag_member <> 0 then begin
        incr nmembers;
        let ri = a.(base + h_cursor_or_row) in
        if ri < 0 || ri >= Vec.size t.rows then fail "member %d: row %d" ci ri
        else begin
          let r = Vec.get t.rows ri in
          if terms != Constr.terms r.rconstr then fail "member %d: terms not shared" ci;
          if a.(base + h_deg) <> Constr.degree cs.constr || a.(base + h_max) <> r.rmax then
            fail "member %d: header disagrees with its constraint" ci;
          if not cs.learned then fail "member %d: not learned" ci
        end
      end
      else if n <> Array.length terms then fail "constraint %d: arena nterms %d" ci n
      else begin
        (* wslack bookkeeping: weight of watched non-lagged-false terms *)
        let ws = ref (-a.(base + h_deg)) in
        let watched_false = ref false in
        let uncovered = ref false in
        for i = 0 to n - 1 do
          let cw = a.(base + hdr_size + (2 * i) + 1) in
          let lit = Lit.of_index a.(base + hdr_size + (2 * i)) in
          let lf = lagged_false t lit in
          if cw land watch_bit <> 0 then begin
            if lf then watched_false := true else ws := !ws + (cw land coeff_mask)
          end
          else begin
            if flags land flag_watch_all <> 0 then
              fail "constraint %d: watch-all with unwatched term %d" ci i;
            if not lf then uncovered := true
          end
        done;
        if a.(base + h_wslack) <> !ws then
          fail "constraint %d: wslack %d, recomputed %d" ci a.(base + h_wslack) !ws;
        (* The watch invariant: the set covers maxcoeff, or every
           non-lagged-false term is watched (so wslack is exact).  A
           watched lagged-false term marks the transient states that are
           allowed to violate it: an aborted visit after a conflict, or
           a learned clause's backjump-level watch. *)
        if !ws < a.(base + h_max) && !uncovered && not !watched_false then
          fail "constraint %d: watch set slack %d below maxcoeff %d with unwatched \
                non-false terms"
            ci !ws a.(base + h_max)
      end)
    t.constrs;
  (* Rows: the shared sum and every row's excluded sum and key are their
     lagged recomputations, a row is the objective's normal form minus
     exactly the terms its exclusion lists and marks name, over one
     factor, its key is above the shared sum exactly when it is tight,
     and its member list names exactly its members, in ascending
     degree.  No position before the shared cursor, as the marks cut it
     back, is unassigned or of a level above its mark's. *)
  let listed = ref 0 and nexcluded = ref 0 in
  let weight li cost = if lagged_false t (Lit.of_index li) then 0 else cost in
  let nbase = Array.length t.obase / 2 in
  if Vec.size t.rows > 0 then begin
    let g = ref 0 in
    for i = 0 to nbase - 1 do
      g := !g + weight t.obase.(2 * i) t.obase.((2 * i) + 1)
    done;
    if t.gsum <> !g then fail "rows: shared sum %d, lagged recompute %d" t.gsum !g
  end;
  let m = t.bmarks in
  if t.btop <> (if Vec.size m = 0 then 0 else Vec.get m (Vec.size m - 2)) then
    fail "rows: top mark level %d" t.btop;
  let open_marks = open_marks t in
  let cursor = if open_marks < Vec.size m then Vec.get m open_marks else t.bcursor in
  let level = ref 0 and next = ref 0 in
  for i = 0 to cursor - 1 do
    while !next < open_marks && Vec.get m !next <= i do
      level := Vec.get m (!next + 1);
      next := !next + 3
    done;
    let v = Lit.var (Lit.of_index t.obase.(2 * i)) in
    if Value.equal t.value.(v) Value.Unknown then
      fail "rows: term %d before the cursor %d is unassigned" i cursor
    else if t.var_level.(v) > !level then
      fail "rows: term %d before the cursor is of level %d, above its mark's %d" i
        t.var_level.(v) !level
  done;
  Vec.iteri
    (fun ri r ->
      let m = r.rmembers in
      listed := !listed + (Vec.size m / 2);
      let terms = Constr.terms r.rconstr in
      let sum = ref 0 and x = ref 0 and j = ref 0 in
      for i = 0 to nbase - 1 do
        let li = t.obase.(2 * i) and cost = t.obase.((2 * i) + 1) in
        if !j < Array.length terms && Lit.to_index terms.(!j).Constr.lit = li then begin
          let coeff = terms.(!j).Constr.coeff in
          if coeff * r.rscale <> cost then
            fail "row %d: term %d is not its cost over %d" ri li r.rscale;
          if Bytes.get r.rout i <> '\000' then fail "row %d: term %d marked excluded" ri li;
          sum := !sum + weight li coeff;
          incr j
        end
        else begin
          incr nexcluded;
          x := !x + weight li cost;
          if Bytes.get r.rout i = '\000' then fail "row %d: excluded %d not marked" ri li;
          if not (List.mem ri t.excl.(li)) then fail "row %d: excluded %d is not listed" ri li
        end
      done;
      if !j <> Array.length terms then fail "row %d: terms off the objective's order" ri;
      if r.rx <> !x then fail "row %d: excluded sum %d, lagged recompute %d" ri r.rx !x;
      if t.gsum - r.rx <> r.rscale * !sum then
        fail "row %d: shared sum less excluded %d, row sum %d over %d" ri (t.gsum - r.rx) !sum
          r.rscale;
      if t.rkeys.(ri) <> row_key r then
        fail "row %d: key %d, recomputed %d" ri t.rkeys.(ri) (row_key r);
      let tight = Vec.size m > 0 && !sum - Vec.get m (Vec.size m - 1) < r.rmax in
      if tight <> (t.rkeys.(ri) > t.gsum) then
        fail "row %d: key %d against shared sum %d, but the row is%s tight" ri t.rkeys.(ri) t.gsum
          (if tight then "" else " not");
      let k = ref 0 in
      while !k < Vec.size m do
        let base = Vec.get m !k and degree = Vec.get m (!k + 1) in
        if a.(base + h_flags) land flag_member = 0 || a.(base + h_cursor_or_row) <> ri then
          fail "row %d: entry %d is not its member" ri (!k / 2)
        else if a.(base + h_deg) <> degree then fail "row %d: entry %d degree" ri (!k / 2);
        if !k > 0 && Vec.get m (!k - 1) > degree then fail "row %d: degrees not ascending" ri;
        k := !k + 2
      done)
    t.rows;
  if !listed <> !nmembers then fail "rows list %d members, store has %d" !listed !nmembers;
  let nlisted = Array.fold_left (fun acc l -> acc + List.length l) 0 t.excl in
  if nlisted <> !nexcluded then
    fail "exclusion lists hold %d rows, rows exclude %d" nlisted !nexcluded;
  if t.nlearned <> !nlearned then fail "learned count %d, store has %d" t.nlearned !nlearned;
  (* The population counters, against a recount (this needs the engine
     to own its registry's bcp.* counters). *)
  List.iter
    (fun (name, c, n) ->
      if Telemetry.Counter.get c <> n then
        fail "bcp.%s reads %d, store has %d" name (Telemetry.Counter.get c) n)
    [
      "constrs_watched", t.bstats.b_nwatched, !nwatched;
      "constrs_watch_all", t.bstats.b_nwatchall, !nwatchall;
    ];
  (* trail levels are monotone and values consistent *)
  let last_level = ref 0 in
  Vec.iter
    (fun l ->
      let lvl = t.var_level.(Lit.var l) in
      if lvl < !last_level then fail "trail levels not monotone";
      last_level := lvl;
      if not (Value.equal (value_lit t l) Value.True) then fail "trail literal not true")
    t.trail;
  (* path cost *)
  let expected =
    Vec.fold (fun acc l -> acc + t.lit_cost.(Lit.to_index l)) 0 t.trail
  in
  if expected <> t.path then fail "path cost %d, expected %d" t.path expected;
  match !error with None -> Ok () | Some e -> Error e
