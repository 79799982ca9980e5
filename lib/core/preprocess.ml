open Pbo
module Core = Engine.Solver_core

type reduction =
  | Fixed of Lit.t
  | Tightened of { cid : int; before : Constr.t; after : Constr.t }
  | Removed of { cid : int; by : int }

let fix_negation ?on_reduction engine l =
  Core.backjump_to engine 0;
  (* tell the proof logger before the unit is added: clauses learned by
     the conflict analysis below may resolve against it *)
  (match on_reduction with Some f -> f (Fixed (Lit.negate l)) | None -> ());
  match Constr.clause [ Lit.negate l ] with
  | Constr.Constr c ->
    (match Core.add_constraint_dynamic engine c with
    | None ->
      (match Core.propagate engine with
      | None -> ()
      | Some ci ->
        (* level-0 conflict: the instance is unsatisfiable *)
        ignore (Core.resolve_conflict engine ci))
    | Some ci -> ignore (Core.resolve_conflict engine ci))
  | Constr.Trivial_true | Constr.Trivial_false -> assert false

let probe ?on_reduction engine =
  let found = ref 0 in
  Core.probe engine ~stop:(fun () -> false) ~implied:ignore ~failed:(fun l ->
      incr found;
      fix_negation ?on_reduction engine l);
  !found

(* ------------------------------------------------------------------ *)
(* Exact constraint-level presolve: subset-sum coefficient tightening
   and dominated-constraint removal (Section 6 territory, but exact
   rather than probing-based).  Both reductions preserve the 0/1
   solution set, so optima are unchanged. *)

type presolve_result = {
  reduced : Problem.t;
  cid_map : int array;
  tightened : int;
  removed : int;
}

(* Tightening caps: the subset-sum DP is exponential-free but still
   O(n * sum) per distinct coefficient value, so stay small. *)
let max_tighten_terms = 24
let max_tighten_sum = 4096

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let cdiv a b = if a >= 0 then (a + b - 1) / b else a / b

(* Subset sums of [coeffs] as a boolean table [0..total]. *)
let reachable coeffs total =
  let reach = Array.make (total + 1) false in
  reach.(0) <- true;
  Array.iter
    (fun a ->
      for s = total - a downto 0 do
        if reach.(s) then reach.(s + a) <- true
      done)
    coeffs;
  reach

(* Exact tightening of one constraint [sum a_i l_i >= d]:

   - lift the degree to [d' = min { s achievable : s >= d }];
   - then, one term at a time, [T_j = min { s achievable by the other
     terms' current coefficients : s >= d' - a_j }] and the tightened
     coefficient is [a_j' = max 0 (d' - T_j)].

   Every 0/1 point satisfying the original satisfies the result and
   vice versa: sums below [d] stay below [d'] (nothing achievable in
   between), and with [l_j] true the requirement on the rest is
   [s >= d' - a_j], which over achievable sums is exactly [s >= T_j =
   d' - a_j']  (Savelsbergh's argument: a_j only ever needs to close
   the gap left by the best completion without it).

   The per-term step is only an equivalence of the CURRENT constraint,
   so reductions must be applied sequentially — each term's reachable
   set is recomputed from the already-updated coefficients.  Applying
   all reductions against the original sets at once is unsound (two
   coefficients can each be individually redundant but not jointly).

   Returns the raw tightened terms and degree (before normalization)
   when anything changed. *)
let tighten_raw (c : Constr.t) =
  let ts = Constr.terms c in
  let n = Array.length ts in
  let d = Constr.degree c in
  let total = Constr.coeff_sum c in
  if n = 0 || n > max_tighten_terms || total > max_tighten_sum || Constr.is_cardinality c then
    None
  else begin
    let coeffs = Array.map (fun (t : Constr.term) -> t.Constr.coeff) ts in
    let reach = reachable coeffs total in
    let d' =
      let s = ref d in
      while !s <= total && not reach.(!s) do incr s done;
      !s
    in
    if d' > total then None (* unreachable degree: constraint is unsatisfiable *)
    else begin
      let changed = ref (d' > d) in
      (* sequential per-term reduction over the live coefficient array;
         the invariant [d' <= sum coeffs] is preserved by every step
         (T_j never exceeds the rest's sum), so T_j always exists *)
      for j = 0 to n - 1 do
        let a = coeffs.(j) in
        let rest_total = Array.fold_left ( + ) 0 coeffs - a in
        let rest = Array.init (n - 1) (fun k -> coeffs.(if k < j then k else k + 1)) in
        let r = reachable rest rest_total in
        let need = max 0 (d' - a) in
        let tj =
          let s = ref need in
          while !s <= rest_total && not r.(!s) do incr s done;
          !s
        in
        let a' = max 0 (d' - tj) in
        if a' <> a then begin
          changed := true;
          coeffs.(j) <- a'
        end
      done;
      if !changed then
        Some (Array.to_list (Array.map2 (fun a (t : Constr.term) -> (a, t.Constr.lit)) coeffs ts), d')
      else None
    end
  end

(* One [j]-step certificate for a tightening of constraint [before]
   (proof reference [pref]): weaken each coefficient down to its raw
   tightened value with literal axioms, then divide by the gcd of the
   surviving coefficients.  The checker recomputes the combination, so
   we predict its result here and only certify when it lands exactly on
   the normalized tightened constraint ([after]); pure degree lifts
   with no coefficient slack have no single-step certificate and are
   skipped in proof mode. *)
let certificate_for ~pref (before : Constr.t) raw d' (after : Constr.t) =
  let bts = Constr.terms before in
  let weaken =
    List.concat
      (List.map2
         (fun (t : Constr.term) (b, l) ->
           if b < t.Constr.coeff then [ (Lit.negate l, t.Constr.coeff - b) ] else [])
         (Array.to_list bts) raw)
  in
  let sumw = List.fold_left (fun acc (_, w) -> acc + w) 0 weaken in
  let g =
    List.fold_left (fun acc (b, _) -> if b > 0 then gcd acc b else acc) 0 raw
  in
  let g = if g = 0 then 1 else g in
  (* predicted derive_combination output: cancellation leaves the raw
     tightened coefficients, the degree drops by the weakening mass,
     then everything is ceiling-divided by [g] and normalized *)
  let predicted =
    Constr.make_ge
      (List.filter_map (fun (b, l) -> if b > 0 then Some (b / g, l) else None) raw)
      (cdiv (Constr.degree before - sumw) g)
  in
  ignore d';
  match predicted with
  | Constr.Constr p when Constr.equal p after ->
    let refs =
      ((if pref >= 0 then Proof.Rcid pref else Proof.Rderived (-pref - 1)), 1)
      :: List.map (fun (l, w) -> (Proof.Rlit l, w)) weaken
    in
    Some (refs, g)
  | Constr.Constr _ | Constr.Trivial_true | Constr.Trivial_false -> None

(* [C] dominates [D] when every literal of [C] appears in [D] with the
   same polarity and [deg_D * a_i <= deg_C * b_i] termwise: then
   [sum_D b l >= (deg_D / deg_C) * sum_C a l >= deg_D] for every point
   satisfying [C], so [D] is implied and removable.  Products are
   guarded against overflow by a coefficient cap. *)
let dominance_cap = 1 lsl 20

let dominates (c : Constr.t) (dconstr : Constr.t) ~coeff_in_d =
  let dc = Constr.degree c in
  let dd = Constr.degree dconstr in
  dc <= dominance_cap && dd <= dominance_cap
  && Array.for_all
       (fun (t : Constr.term) ->
         match coeff_in_d t.Constr.lit with
         | Some b -> b <= dominance_cap && t.Constr.coeff <= dominance_cap && dd * t.Constr.coeff <= dc * b
         | None -> false)
       (Constr.terms c)

let max_dominance_pairs = 200_000

let presolve ?certify ?on_reduction problem =
  let constraints = Problem.constraints problem in
  let n = Array.length constraints in
  let identity () =
    { reduced = problem; cid_map = Array.init n (fun i -> i); tightened = 0; removed = 0 }
  in
  if Problem.trivially_unsat problem || n = 0 then identity ()
  else begin
    let cur = Array.copy constraints in
    let alive = Array.make n true in
    let refs = Array.init n (fun i -> i) in
    let ntight = ref 0 in
    (* --- coefficient tightening to fixpoint (bounded passes) --- *)
    let pass = ref 0 in
    let progress = ref true in
    while !progress && !pass < 4 do
      progress := false;
      incr pass;
      for i = 0 to n - 1 do
        if alive.(i) then
          match tighten_raw cur.(i) with
          | None -> ()
          | Some (raw, d') -> (
            match Constr.make_ge raw d' with
            | Constr.Constr after when not (Constr.equal after cur.(i)) ->
              let accept =
                match certify with
                | None -> true
                | Some certify -> (
                  match certificate_for ~pref:refs.(i) cur.(i) raw d' after with
                  | None -> false
                  | Some (crefs, divisor) -> (
                    match certify ~refs:crefs ~divisor ~expect:after with
                    | Some r ->
                      refs.(i) <- r;
                      true
                    | None -> false))
              in
              if accept then begin
                (match on_reduction with
                | Some f -> f (Tightened { cid = i; before = cur.(i); after })
                | None -> ());
                cur.(i) <- after;
                incr ntight;
                progress := true
              end
            | Constr.Constr _ | Constr.Trivial_true | Constr.Trivial_false -> ())
      done
    done;
    (* --- dominated-constraint removal --- *)
    let nremoved = ref 0 in
    let nvars = Problem.nvars problem in
    let occ = Array.make (2 * nvars) [] in
    for i = n - 1 downto 0 do
      if alive.(i) then
        Array.iter
          (fun (t : Constr.term) ->
            let k = Lit.to_index t.Constr.lit in
            occ.(k) <- i :: occ.(k))
          (Constr.terms cur.(i))
    done;
    (* per-candidate coefficient lookup, stamped to avoid clearing *)
    let stamp = Array.make (2 * nvars) (-1) in
    let coeff_at = Array.make (2 * nvars) 0 in
    let budget = ref max_dominance_pairs in
    for i = 0 to n - 1 do
      if alive.(i) && !budget > 0 then begin
        let c = cur.(i) in
        (* rarest literal of c narrows the candidate set *)
        let best = ref [] and best_len = ref max_int in
        Array.iter
          (fun (t : Constr.term) ->
            let l = occ.(Lit.to_index t.Constr.lit) in
            let len = List.length l in
            if len < !best_len then begin
              best := l;
              best_len := len
            end)
          (Constr.terms c);
        List.iter
          (fun j ->
            if j <> i && alive.(j) && alive.(i) && !budget > 0 then begin
              decr budget;
              let d = cur.(j) in
              Array.iter
                (fun (t : Constr.term) ->
                  let k = Lit.to_index t.Constr.lit in
                  stamp.(k) <- i * n + j;
                  coeff_at.(k) <- t.Constr.coeff)
                (Constr.terms d);
              let coeff_in_d l =
                let k = Lit.to_index l in
                if stamp.(k) = i * n + j then Some coeff_at.(k) else None
              in
              (* equal constraints dominate each other; keep the earlier *)
              if dominates c d ~coeff_in_d && (not (Constr.equal c d) || i < j) then begin
                alive.(j) <- false;
                incr nremoved;
                (match on_reduction with
                | Some f -> f (Removed { cid = j; by = i })
                | None -> ())
              end
            end)
          !best
      end
    done;
    if !ntight = 0 && !nremoved = 0 then identity ()
    else begin
      let b = Problem.Builder.create ~nvars () in
      let map = ref [] in
      for i = n - 1 downto 0 do
        if alive.(i) then map := refs.(i) :: !map
      done;
      for i = 0 to n - 1 do
        if alive.(i) then Problem.Builder.add_norm b (Constr.Constr cur.(i))
      done;
      (match Problem.objective problem with
      | None -> ()
      | Some o ->
        Problem.Builder.set_objective b ~offset:o.Problem.offset
          (Array.to_list
             (Array.map (fun ct -> (ct.Problem.cost, ct.Problem.lit)) o.Problem.cost_terms)));
      {
        reduced = Problem.Builder.build b;
        cid_map = Array.of_list !map;
        tightened = !ntight;
        removed = !nremoved;
      }
    end
  end
