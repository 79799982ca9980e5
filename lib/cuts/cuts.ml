open Pbo
module Core = Engine.Solver_core

type mode =
  | Off
  | Root
  | Tree

type family =
  | Cover
  | Clique
  | Implied

let family_name = function Cover -> "cover" | Clique -> "clique" | Implied -> "implied"

type cut = {
  family : family;
  constr : Constr.t;
  proof_ref : int option;
}

(* How a candidate cut will be certified: a cutting-planes division step
   (weakening literal axioms + one ceiling division of a source
   constraint) or reverse unit propagation (implied-bound clauses). *)
type recipe =
  | Division of {
      refs : (Proof.dref * int) list;
      divisor : int;
    }
  | Rup of Lit.t list

(* --- fractional-point evaluation --------------------------------------- *)

let lit_value xval l =
  let v = xval (Lit.var l) in
  if Lit.is_pos l then v else 1. -. v

let lp_value xval (c : Constr.t) =
  Array.fold_left
    (fun acc (t : Constr.term) ->
      acc +. (float_of_int t.Constr.coeff *. lit_value xval t.Constr.lit))
    0. (Constr.terms c)

let violation xval c = float_of_int (Constr.degree c) -. lp_value xval c
let min_violation = 0.01

let lp_row (c : Constr.t) =
  let rhs = ref (float_of_int (Constr.degree c)) in
  let coeffs =
    Array.map
      (fun (t : Constr.term) ->
        let a = float_of_int t.Constr.coeff in
        if Lit.is_pos t.Constr.lit then (Lit.var t.Constr.lit, a)
        else begin
          rhs := !rhs -. a;
          (Lit.var t.Constr.lit, -.a)
        end)
      (Constr.terms c)
  in
  { Simplex.coeffs; rel = Simplex.Ge; rhs = !rhs }

(* --- division cuts ----------------------------------------------------- *)

let cdiv a b = (a + b - 1) / b

(* Predict the checker's result for "source constraint + weakening
   axioms, ceiling-divided by [divisor]" — the exact arithmetic of
   [Proof.log_derived], so a certified cut is known before the step is
   written.  [w.(i)] is the weakening applied to term [i]. *)
let divide_prediction (c : Constr.t) w divisor =
  let ts = Constr.terms c in
  let sumw = ref 0 in
  let raw = ref [] in
  Array.iteri
    (fun i (t : Constr.term) ->
      sumw := !sumw + w.(i);
      let b = t.Constr.coeff - w.(i) in
      if b > 0 then raw := (cdiv b divisor, t.Constr.lit) :: !raw)
    ts;
  let deg = Constr.degree c - !sumw in
  if deg <= 0 || divisor < 1 then None
  else
    match Constr.make_ge !raw (cdiv deg divisor) with
    | Constr.Constr r -> Some r
    | Constr.Trivial_true | Constr.Trivial_false -> None

let division_recipe (cid : int) (c : Constr.t) w divisor =
  let refs = ref [] in
  let ts = Constr.terms c in
  for i = Array.length ts - 1 downto 0 do
    if w.(i) > 0 then refs := (Proof.Rlit (Lit.negate ts.(i).Constr.lit), w.(i)) :: !refs
  done;
  Division { refs = (Proof.Rcid cid, 1) :: !refs; divisor }

(* Cover cuts.  Read [sum a_i l_i >= d] as the knapsack
   [sum a_i ~l_i <= A - d]: a cover [C] with [sum_C a_i > A - d] cannot
   have all its literals false, so [sum_C l_i >= 1].  The cover is
   grown greedily over the fractional point (cheapest LP value first)
   and certified by weakening every non-cover literal away, then
   dividing by the largest cover coefficient.  The lifted variant keeps
   large outside coefficients at their floor multiples of the divisor,
   which the same division turns into integer lifting coefficients. *)

(* [Array.sort (fun i j -> compare keys.(i) keys.(j)) a] without the
   closure: the same heap sort step for step, so equal keys come out in
   the same order. *)
exception Bottom of int

let[@inline] key_cmp (keys : float array) i j =
  let x = Array.unsafe_get keys i and y = Array.unsafe_get keys j in
  if x < y then -1 else if x > y then 1 else if x = y then 0 else Float.compare x y

let maxson keys a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if key_cmp keys a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if key_cmp keys a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && key_cmp keys a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else raise_notrace (Bottom i)

let rec trickledown keys a l i e =
  let j = maxson keys a l i in
  if key_cmp keys a.(j) e > 0 then begin
    a.(i) <- a.(j);
    trickledown keys a l j e
  end
  else a.(i) <- e

let rec bubbledown keys a l i =
  let j = maxson keys a l i in
  a.(i) <- a.(j);
  bubbledown keys a l j

let rec trickleup keys a i e =
  let father = (i - 1) / 3 in
  if key_cmp keys a.(father) e < 0 then begin
    a.(i) <- a.(father);
    if father > 0 then trickleup keys a father e else a.(0) <- e
  end
  else a.(i) <- e

let sort_by_key keys a =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    let e = a.(i) in
    try trickledown keys a l i e with Bottom j -> a.(j) <- e
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup keys a (try bubbledown keys a i 0 with Bottom i -> i) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* The greedy cover of terms [ts]: [idx] is sorted by the terms' LP
   values [v] (cheapest first), and [incover] marks a minimal cover.
   Returns its largest coefficient, the divisor, or 0 when the knapsack
   of capacity [cap] has no cover. *)
let greedy_cover (ts : Constr.term array) cap idx v incover =
  let n = Array.length ts in
  for i = 0 to n - 1 do
    idx.(i) <- i;
    incover.(i) <- false
  done;
  sort_by_key v idx;
  let weight = ref 0 in
  let k = ref 0 in
  while !weight <= cap && !k < n do
    incover.(idx.(!k)) <- true;
    weight := !weight + ts.(idx.(!k)).Constr.coeff;
    incr k
  done;
  if !weight <= cap then 0
  else begin
    (* minimalize: drop redundant members, largest LP value first *)
    for j = !k - 1 downto 0 do
      let i = idx.(j) in
      if incover.(i) && !weight - ts.(i).Constr.coeff > cap then begin
        incover.(i) <- false;
        weight := !weight - ts.(i).Constr.coeff
      end
    done;
    let divisor = ref 0 in
    for i = 0 to n - 1 do
      if incover.(i) then divisor := max !divisor ts.(i).Constr.coeff
    done;
    !divisor
  end

(* The plain and the lifted cut of a minimal cover, each with its
   weakening, in that order; either may vanish in the division. *)
let cover_variants (c : Constr.t) incover divisor =
  let ts = Constr.terms c in
  let n = Array.length ts in
  let w_plain = Array.init n (fun i -> if incover.(i) then 0 else ts.(i).Constr.coeff) in
  let w_lifted =
    Array.init n (fun i ->
        if incover.(i) then 0
        else if ts.(i).Constr.coeff >= divisor then ts.(i).Constr.coeff mod divisor
        else ts.(i).Constr.coeff)
  in
  List.filter_map
    (fun w -> Option.map (fun r -> (r, w)) (divide_prediction c w divisor))
    [ w_plain; w_lifted ]

(* The most violated of [variants] above [min_violation], the first on
   a tie. *)
let most_violated xval cut_of variants =
  List.fold_left
    (fun best x ->
      let viol = violation xval (cut_of x) in
      if viol > min_violation && (match best with Some (bv, _) -> viol > bv | None -> true)
      then Some (viol, x)
      else best)
    None variants
  |> Option.map snd

let cover_cut xval (cid, (c : Constr.t)) =
  let ts = Constr.terms c in
  let n = Array.length ts in
  let cap = Constr.coeff_sum c - Constr.degree c in
  if n < 2 || cap <= 0 then None
  else begin
    let v = Array.map (fun (t : Constr.term) -> lit_value xval t.Constr.lit) ts in
    let idx = Array.make n 0 and incover = Array.make n false in
    match greedy_cover ts cap idx v incover with
    | 0 -> None
    | divisor ->
      Option.map
        (fun (r, w) -> (r, division_recipe cid c w divisor))
        (most_violated xval fst (cover_variants c incover divisor))
  end

(* Clique cuts.  In [sum a_i l_i >= d] (coefficients sorted decreasing,
   [A = sum a_i]) any two literals [l_i, l_j] with [a_i + a_j > A - d]
   cannot both be false; the largest prefix whose two smallest members
   satisfy this is a clique in that conflict graph, hence at most one
   of its literals is false: [sum_prefix l_i >= k - 1].  Certified in
   one division step: weaken the rest of the constraint away, weaken
   every prefix coefficient down to the second-smallest [r], divide by
   [r] — the needed degree survives exactly when the pairwise condition
   holds.  The cut does not depend on the point. *)
let clique_division (cid, (c : Constr.t)) =
  let ts = Constr.terms c in
  let n = Array.length ts in
  let cap = Constr.coeff_sum c - Constr.degree c in
  if n < 2 || cap < 0 then None
  else begin
    let k = ref 0 in
    while
      !k < n && (!k < 2 || ts.(!k - 2).Constr.coeff + ts.(!k - 1).Constr.coeff > cap)
    do
      incr k
    done;
    let k = !k in
    if k < 2 || ts.(k - 2).Constr.coeff + ts.(k - 1).Constr.coeff <= cap then None
    else begin
      let divisor = ts.(k - 2).Constr.coeff in
      let w =
        Array.init n (fun i ->
            if i >= k then ts.(i).Constr.coeff else max 0 (ts.(i).Constr.coeff - divisor))
      in
      Option.map (fun r -> (r, division_recipe cid c w divisor)) (divide_prediction c w divisor)
    end
  end

let clique_cut xval src =
  match clique_division src with
  | Some (r, _) as cand when violation xval r > min_violation -> cand
  | Some _ | None -> None

(* --- implied-bound cuts ------------------------------------------------ *)

(* Root probing for implications [l -> m]: decide [l], propagate, read
   the implied literals off the trail above level 0.  The clause
   [~l \/ m] is valid (and RUP: asserting [l, ~m] replays the very
   propagation that produced it), giving the LP the bound [x_m >= x_l]
   it cannot see through the joint relaxation.  Must be called at
   decision level 0. *)
let max_probes = 64
let max_implications = 256

let mine_implications engine =
  let acc = ref [] and count = ref 0 and probes = ref 0 in
  Core.probe engine
    ~stop:(fun () -> !probes >= max_probes || !count >= max_implications)
    ~failed:(fun _ -> incr probes (* failed literal: probing's business, not ours *))
    ~implied:(fun l ->
      incr probes;
      Core.iter_trail_above engine 0 (fun m ->
          if Lit.var m <> Lit.var l && !count < max_implications then begin
            acc := (l, m) :: !acc;
            incr count
          end));
  !acc

let implied_cut xval (l, m) =
  match Constr.clause [ Lit.negate l; m ] with
  | Constr.Constr c when violation xval c > min_violation ->
    Some (c, Rup [ Lit.negate l; m ])
  | Constr.Constr _ | Constr.Trivial_true | Constr.Trivial_false -> None

(* --- the pool ---------------------------------------------------------- *)

(* The violation of [~l \/ m] is [v_l - v_m] up to a few ulps of
   rounding; below [min_violation] by more than [rounding_margin] it
   cannot clear the threshold, so the clause need not be built.  Every
   other pair goes to [implied_cut], which decides it exactly. *)
let rounding_margin = 1e-9

let implication_may_cut (x : float array) (l, m) =
  let value l = if Lit.is_pos l then x.(Lit.var l) else 1. -. x.(Lit.var l) in
  value l -. value m >= min_violation -. rounding_margin

(* A row whose support is integral at the point, with the point
   satisfying it, yields no violated cover or clique cut: those cuts
   hold at every 0/1 point satisfying the row, and at an integral point
   their LP value is an exact integer sum.  [x.(i)] is the value of term
   [i]'s variable. *)
let integral_and_satisfied (c : Constr.t) x =
  let ts = Constr.terms c in
  let n = Array.length ts in
  let rec go i sum =
    if i = n then sum >= Constr.degree c
    else
      let t = ts.(i) in
      let v = x.(i) in
      if v = 0. then go (i + 1) (if Lit.is_pos t.Constr.lit then sum else sum + t.Constr.coeff)
      else if v = 1. then go (i + 1) (if Lit.is_pos t.Constr.lit then sum + t.Constr.coeff else sum)
      else false
  in
  go 0 0

(* A cut a prepared source offers, with its certificate.  Once the pool
   has taken it ([offered]) it is in the pool's [Seen] for good, so
   offering it again would change nothing. *)
type candidate = {
  cut : Constr.t;
  recipe : recipe;
  mutable offered : bool;
}

let candidate (cut, recipe) = { cut; recipe; offered = false }

(* A separation source, prepared once: its clique cut, which does not
   depend on the point, and the cover search's workspace, with the cover
   variants last derived ([members], [divisor] > 0 once derived).  [x]
   holds the values of its terms' variables at the last visit, and
   [settled] says that every candidate that visit found was taken by the
   pool: a visit at the same values would then offer nothing new. *)
type source = {
  cid : int;
  c : Constr.t;
  cap : int;
  clique : candidate option;
  covers : bool;  (* at least two terms and a positive capacity *)
  x : float array;
  v : float array;
  idx : int array;
  incover : bool array;
  members : bool array;
  mutable divisor : int;
  mutable variants : candidate list;
  mutable settled : bool;
}

(* The sources that can yield a cut, prepared. *)
let prepare sources =
  List.filter_map
    (fun ((cid, c) as src) ->
      let n = Array.length (Constr.terms c) in
      let cap = Constr.coeff_sum c - Constr.degree c in
      let clique = Option.map candidate (clique_division src) in
      let covers = n >= 2 && cap > 0 in
      if clique = None && not covers then None
      else begin
        Some
          {
            cid;
            c;
            cap;
            clique;
            covers;
            x = Array.make n 0.;
            v = Array.make n 0.;
            idx = Array.make n 0;
            incover = Array.make n false;
            members = Array.make n false;
            divisor = 0;
            variants = [];
            settled = false;
          }
      end)
    sources

(* [cover_cut] on a prepared source, at the point in [s.x].  Of a
   minimal cover [C] with divisor [d], the plain cut is [sum_C l_i >= 1]
   and the lifted one adds [f_i l_i] for each outside term with
   [a_i >= d], [f_i = a_i / d], to both sides (the division leaves them
   so).  The lifted violation [1 - sum_C v_i + sum f_i (1 - v_i)] bounds
   both, so when it is below [min_violation] by more than the rounding
   of these sums neither variant is built.  A member set equal to the
   last one derived from the source reuses its variants, and is skipped
   once the pool has taken them all.

   That bound is known before the sort in a common case: when the terms
   of value below 1 weigh at most [cap], the greedy cover's last term
   [z], which minimalization keeps, has value at least 1, and so has
   every term outside the greedy prefix.  A term minimalization drops
   weighs less than [z] (the prefix less [z] fits in [cap]), so below
   the divisor, and is never lifted; the lifted terms are outside the
   prefix, with [1 - v_i <= 0].  The bound is then at most the
   negative values' magnitude, LP round-off, and the cover is
   rejected unsorted. *)
let cover_at xval s =
  let ts = Constr.terms s.c in
  let n = Array.length ts in
  let below_one = ref 0 and negative = ref 0. in
  for i = 0 to n - 1 do
    let v = if Lit.is_pos ts.(i).Constr.lit then s.x.(i) else 1. -. s.x.(i) in
    s.v.(i) <- v;
    if v < 1. then below_one := !below_one + ts.(i).Constr.coeff;
    if v < 0. then negative := !negative -. v
  done;
  if !below_one <= s.cap && !negative <= min_violation /. 2. then None
  else
    match greedy_cover ts s.cap s.idx s.v s.incover with
    | 0 -> None
    | d ->
      let u = ref 1. and f = ref 0 in
      for i = 0 to n - 1 do
        if s.incover.(i) then u := !u -. s.v.(i)
        else if ts.(i).Constr.coeff >= d then begin
          let fi = ts.(i).Constr.coeff / d in
          f := !f + fi;
          u := !u +. (float_of_int fi *. Float.max 0. (1. -. s.v.(i)))
        end
      done;
      if !u <= min_violation -. (rounding_margin *. (1. +. float_of_int (!f + n))) then None
      else if s.divisor = d && s.members = s.incover then
        if List.for_all (fun cand -> cand.offered) s.variants then None
        else most_violated xval (fun cand -> cand.cut) s.variants
      else begin
        s.variants <-
          List.map
            (fun (r, w) -> candidate (r, division_recipe s.cid s.c w d))
            (cover_variants s.c s.incover d);
        s.divisor <- d;
        Array.blit s.incover 0 s.members 0 n;
        most_violated xval (fun cand -> cand.cut) s.variants
      end

(* Read the point into [s.x]: true when it is the last visit's and
   that visit was settled. *)
let unchanged (x : float array) s =
  let ts = Constr.terms s.c in
  let same = ref s.settled in
  for i = 0 to Array.length ts - 1 do
    let v = x.(Lit.var ts.(i).Constr.lit) in
    if v <> s.x.(i) then begin
      same := false;
      s.x.(i) <- v
    end
  done;
  !same

module Seen = Hashtbl.Make (struct
  type t = Constr.t

  let equal = Constr.equal
  let hash c = Hashtbl.hash_param 64 256 c
end)

module Pool = struct
  type entry = {
    cut : cut;
    lp : Simplex.row;  (* [lp_row cut.constr], built once *)
    mutable row : int;  (* LP row index while active, -1 otherwise *)
    mutable idle : int;  (* consecutive optimal solves with a zero dual *)
    mutable tight : bool;  (* ever carried a nonzero dual: counted once *)
  }

  type fam = {
    separated : Telemetry.Counter.t;
    applied : Telemetry.Counter.t;
    evicted : Telemetry.Counter.t;
    tight : Telemetry.Counter.t;
  }

  type t = {
    proof : Proof.t option;
    max_active : int;
    max_per_round : int;
    stale_after : int;
    mutable implications : (Lit.t * Lit.t) array;
        (* the first [pending] are still separable, in order *)
    mutable pending : int;
    mutable sources : source list option;
        (* lazily prepared separation candidates: rows with a coefficient
           >= 2 that have a clique cut or a cover.  All-unit rows divide
           by 1, so their cover/clique "cuts" are LP-implied and never
           violated — scanning them every solve is pure waste on
           clause-dominated instances. *)
    seen : unit Seen.t;
    mutable entries : entry list;  (* active (row >= 0) entries *)
    cover : fam;
    clique : fam;
    implied : fam;
  }

  let fam_counters reg name =
    let c suffix = Telemetry.Registry.counter reg (Printf.sprintf "cuts.%s.%s" name suffix) in
    { separated = c "separated"; applied = c "applied"; evicted = c "evicted"; tight = c "tight" }

  let create ?proof ?(max_active = 32) ?(max_per_round = 8) ?(stale_after = 50)
      (tel : Telemetry.Ctx.t) =
    let reg = tel.Telemetry.Ctx.registry in
    {
      proof;
      max_active;
      max_per_round;
      stale_after;
      implications = [||];
      pending = 0;
      sources = None;
      seen = Seen.create 64;
      entries = [];
      cover = fam_counters reg "cover";
      clique = fam_counters reg "clique";
      implied = fam_counters reg "implied";
    }

  let counters pool = function
    | Cover -> pool.cover
    | Clique -> pool.clique
    | Implied -> pool.implied

  let note_implications pool imps =
    pool.implications <-
      Array.append (Array.of_list imps) (Array.sub pool.implications 0 pool.pending);
    pool.pending <- Array.length pool.implications
  let active pool = pool.entries

  (* Certify a candidate before it may touch the LP: in proof mode the
     derivation (or RUP step) is written and must land exactly on the
     cut — an uncertifiable cut is dropped, never trusted. *)
  let certify pool constr = function
    | _ when pool.proof = None -> Some None
    | Division { refs; divisor } -> (
      let proof = Option.get pool.proof in
      match Proof.log_derived proof ~refs ~divisor with
      | Some (k, c) when Constr.equal c constr -> Some (Some (-(k + 1)))
      | Some _ | None -> None)
    | Rup lits -> (
      let proof = Option.get pool.proof in
      match Proof.log_rup proof lits with
      | Some (k, c) when Constr.equal c constr -> Some (Some (-(k + 1)))
      | Some _ | None -> None)

  let separation_sources pool engine =
    match pool.sources with
    | Some srcs -> srcs
    | None ->
      (* lb_constraints is stable for the solver's lifetime, so the
         filter runs once *)
      let srcs =
        prepare (List.filter (fun (_, c) -> Constr.max_coeff c >= 2) (Core.lb_constraints engine))
      in
      pool.sources <- Some srcs;
      srcs

  let separate pool engine ~x =
    let xval v = x.(v) in
    if List.length pool.entries >= pool.max_active then []
    else begin
      let sources = separation_sources pool engine in
      if sources = [] && pool.pending = 0 then []
      else begin
        let budget = ref pool.max_per_round in
        let out = ref [] in
        (* returns whether the candidate was consumed (already seen, or
           processed now) — false only when the round budget ran out *)
        let consider family (constr, recipe) =
          if !budget <= 0 then false
          else begin
            if Seen.mem pool.seen constr then true
            else begin
              Seen.add pool.seen constr ();
              Telemetry.Counter.incr (counters pool family).separated;
              (match certify pool constr recipe with
              | None -> () (* uncertifiable: never enters the LP *)
              | Some proof_ref ->
                decr budget;
                Telemetry.Counter.incr (counters pool family).applied;
                let e =
                  {
                    cut = { family; constr; proof_ref };
                    lp = lp_row constr;
                    row = -1;
                    idle = 0;
                    tight = false;
                  }
                in
                pool.entries <- e :: pool.entries;
                out := e :: !out);
              true
            end
          end
        in
        (* an implication consumed by the pool never needs re-deriving;
           dropping it keeps the per-solve scan proportional to what is
           still separable *)
        let imps = pool.implications and kept = ref 0 in
        for k = 0 to pool.pending - 1 do
          let imp = imps.(k) in
          let keep =
            (not (implication_may_cut x imp))
            ||
            match implied_cut xval imp with
            | None -> true
            | Some cand -> not (consider Implied cand)
          in
          if keep then begin
            if !kept < k then imps.(!kept) <- imp;
            incr kept
          end
        done;
        pool.pending <- !kept;
        (* once the round budget is spent no candidate is consumed, and
           a candidate the pool has taken is never consumed again *)
        let offer family cand =
          if (not cand.offered) && consider family (cand.cut, cand.recipe) then
            cand.offered <- true
        in
        List.iter
          (fun s ->
            if !budget > 0 && not (unchanged x s) then begin
              let found = ref [] in
              if not (integral_and_satisfied s.c s.x) then begin
                (match s.clique with
                | Some cand when (not cand.offered) && violation xval cand.cut > min_violation ->
                  offer Clique cand;
                  found := [ cand ]
                | Some _ | None -> ());
                if s.covers then
                  Option.iter
                    (fun cand ->
                      offer Cover cand;
                      found := cand :: !found)
                    (cover_at xval s)
              end;
              s.settled <- List.for_all (fun cand -> cand.offered) !found
            end)
          sources;
        List.rev !out
      end
    end

  (* Aging: called once per optimal LP solve with the row duals.  A cut
     carrying a nonzero dual is doing bounding work; one that stays at
     zero for [stale_after] consecutive solves is a candidate for
     eviction.  [cuts.<family>.tight] counts cuts, not solves: an entry
     is counted the first time its dual is nonzero. *)
  let observe pool ~duals =
    List.iter
      (fun e ->
        if e.row >= 0 && e.row < Array.length duals then begin
          if abs_float duals.(e.row) > 1e-9 then begin
            e.idle <- 0;
            if not e.tight then begin
              e.tight <- true;
              Telemetry.Counter.incr (counters pool e.cut.family).tight
            end
          end
          else e.idle <- e.idle + 1
        end)
      pool.entries

  (* Stale entries, highest LP row first so the caller can drop rows
     without disturbing the indices of the ones still pending. *)
  let evictable pool =
    List.sort
      (fun (a : entry) b -> compare b.row a.row)
      (List.filter (fun e -> e.row >= 0 && e.idle >= pool.stale_after) pool.entries)

  let note_evicted pool e =
    let row = e.row in
    Telemetry.Counter.incr (counters pool e.cut.family).evicted;
    e.row <- -1;
    pool.entries <- List.filter (fun e' -> e' != e) pool.entries;
    List.iter (fun e' -> if e'.row > row then e'.row <- e'.row - 1) pool.entries
end

type config = {
  pool : Pool.t;
  mode : mode;
}
