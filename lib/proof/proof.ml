open Pbo

let version = "bsolo-pbp 1"
let denom = 1 lsl 20
let lit_to_int l = if Lit.is_pos l then Lit.var l + 1 else -(Lit.var l + 1)

let lit_of_int n =
  if n = 0 then invalid_arg "Proof.lit_of_int";
  if n > 0 then Lit.pos (n - 1) else Lit.neg (-n - 1)

(* --- exact arithmetic with overflow detection ------------------------------ *)

exception Overflow

let add_exn a b =
  let s = a + b in
  if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then raise Overflow;
  s

let mul_exn a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a then raise Overflow;
    p
  end

(* --- certificates ---------------------------------------------------------- *)

type cert =
  | Cert_path
  | Cert_bound of (int * float) list
  | Cert_farkas of (int * float) list

(* Pin every literal of [omega] false: per variable 0 = free,
   1 = pinned true, 2 = pinned false.  None when omega is a tautology
   (both polarities present), which is trivially entailed. *)
let pinning nvars omega =
  let pins = Array.make nvars 0 in
  let tauto = ref false in
  List.iter
    (fun l ->
      let v = Lit.var l in
      if v >= 0 && v < nvars then begin
        let want = if Lit.is_pos l then 2 else 1 in
        if pins.(v) <> 0 && pins.(v) <> want then tauto := true else pins.(v) <- want
      end)
    omega;
  if !tauto then None else Some pins

(* B = sum m_i d_i + sum_v min over rho-allowed values of
   [denom * gamma(l_x) - sum_i m_i a_i(l_x)], where l_x is the literal
   of v made true by value x.  This is denom times the Lagrangian
   L(m/denom) minimized over the box that the pinning allows, hence a
   valid lower bound on the cost (resp. on constraint surplus when the
   objective is excluded) of any completion falsifying omega. *)
(* Reference space shared by [b]/[y]/[j] steps: a non-negative integer
   names an original problem constraint, a negative integer [-(k+1)]
   names the [k]-th derived constraint of the current proof section
   (written [x<k>] in the log).  [lookup_derived] resolves the latter. *)
let certify_scaled_gen problem ~lookup_derived ~refs ~omega ~objective ~upper =
  let nvars = Problem.nvars problem in
  let constraints = Problem.constraints problem in
  let n = Array.length constraints in
  let resolve cid =
    if cid >= 0 then (if cid < n then Some constraints.(cid) else None)
    else lookup_derived (-cid - 1)
  in
  try
    if List.exists (fun (cid, m) -> m < 0 || resolve cid = None) refs then raise Exit;
    match pinning nvars omega with
    | None -> true
    | Some pins ->
      let a = Array.make (2 * nvars) 0 in
      let base = ref 0 in
      List.iter
        (fun (cid, m) ->
          if m > 0 then begin
            let c = match resolve cid with Some c -> c | None -> raise Exit in
            base := add_exn !base (mul_exn m (Constr.degree c));
            Array.iter
              (fun (t : Constr.term) ->
                let i = Lit.to_index t.lit in
                a.(i) <- add_exn a.(i) (mul_exn m t.coeff))
              (Constr.terms c)
          end)
        refs;
      let gamma = Array.make (2 * nvars) 0 in
      if objective then (
        match Problem.objective problem with
        | None -> ()
        | Some o ->
          Array.iter
            (fun (ct : Problem.cost_term) -> gamma.(Lit.to_index ct.lit) <- ct.cost)
            o.cost_terms);
      let total = ref !base in
      for v = 0 to nvars - 1 do
        let term positive =
          let i = Lit.to_index (Lit.make v positive) in
          add_exn (mul_exn denom gamma.(i)) (-a.(i))
        in
        let t =
          match pins.(v) with
          | 1 -> term true
          | 2 -> term false
          | _ -> min (term true) (term false)
        in
        total := add_exn !total t
      done;
      if objective then !total > mul_exn (upper - 1) denom else !total > 0
  with Overflow | Exit -> false

let certify_scaled ?(derived = [||]) problem ~refs ~omega ~objective ~upper =
  let lookup_derived k =
    if k >= 0 && k < Array.length derived then Some derived.(k) else None
  in
  certify_scaled_gen problem ~lookup_derived ~refs ~omega ~objective ~upper

(* --- cutting-planes derivations -------------------------------------------- *)

type dref =
  | Rcid of int
  | Rderived of int
  | Rlit of Lit.t

(* Exact nonnegative combination of the referenced constraints and
   literal axioms [lit >= 0], opposite-literal cancellation, then
   ceiling division by [divisor].  Saturation and gcd reduction happen
   inside [Constr.make_ge]; every one of those operations is a sound
   cutting-planes inference over 0/1 variables, so the result is
   entailed by the references.  [None] on overflow, a bad reference or
   a non-positive divisor — the step is then unjustifiable. *)
let derive_combination ~nvars ~resolve ~refs ~divisor =
  if divisor < 1 then None
  else begin
    try
      let a = Array.make (2 * nvars) 0 in
      let deg = ref 0 in
      List.iter
        (fun (r, m) ->
          if m < 0 then raise Exit;
          if m > 0 then
            match r with
            | Rlit l ->
              if Lit.var l < 0 || Lit.var l >= nvars then raise Exit;
              let i = Lit.to_index l in
              a.(i) <- add_exn a.(i) m
            | Rcid _ | Rderived _ -> (
              match resolve r with
              | None -> raise Exit
              | Some c ->
                deg := add_exn !deg (mul_exn m (Constr.degree c));
                Array.iter
                  (fun (t : Constr.term) ->
                    let i = Lit.to_index t.lit in
                    a.(i) <- add_exn a.(i) (mul_exn m t.coeff))
                  (Constr.terms c)))
        refs;
      (* a+ l + a- ~l = (a+ - a-) l + a- *)
      for v = 0 to nvars - 1 do
        let ip = Lit.to_index (Lit.pos v) and im = Lit.to_index (Lit.neg v) in
        let c = min a.(ip) a.(im) in
        if c > 0 then begin
          a.(ip) <- a.(ip) - c;
          a.(im) <- a.(im) - c;
          deg := !deg - c
        end
      done;
      let cdiv x = if x >= 0 then (x + divisor - 1) / divisor else x / divisor in
      let raw = ref [] in
      for i = (2 * nvars) - 1 downto 0 do
        if a.(i) > 0 then raw := (cdiv a.(i), Lit.of_index i) :: !raw
      done;
      Some (Constr.make_ge !raw (cdiv !deg))
    with Overflow | Exit | Invalid_argument _ -> None
  end

(* --- objective cuts (checker-side recomputation) --------------------------- *)

let objective_family problem =
  Option.map
    (fun (o : Problem.objective) ->
      Constr.family
        (Array.to_list (Array.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) o.cost_terms)))
    (Problem.objective problem)

let objective_cut problem ~upper =
  Option.map (fun f -> Constr.family_at f (upper - 1)) (objective_family problem)

(* The eq. (11-13) cut of a cid as [V] plus the family of its outside-[K]
   cost terms, prepared at most once per cid: a [d] step then only
   evaluates the degree. *)
let cardinality_rows problem =
  let constraints = Problem.constraints problem in
  let nvars = max 1 (Problem.nvars problem) in
  let cost_terms =
    match Problem.objective problem with None -> [||] | Some o -> o.cost_terms
  in
  let lit_cost = Array.make (2 * nvars) 0 in
  Array.iter (fun (ct : Problem.cost_term) -> lit_cost.(Lit.to_index ct.lit) <- ct.cost) cost_terms;
  let in_k = Array.make nvars false in
  let prepare cid =
    if cid < 0 || cid >= Array.length constraints then None
    else begin
      let c = constraints.(cid) in
      if not (Constr.is_cardinality c) then None
      else begin
        let costs =
          Array.map (fun (t : Constr.term) -> lit_cost.(Lit.to_index t.lit)) (Constr.terms c)
        in
        Array.sort compare costs;
        let v = ref 0 in
        for i = 0 to min (Constr.degree c) (Array.length costs) - 1 do
          v := !v + costs.(i)
        done;
        if !v <= 0 then None
        else begin
          Array.iter (fun (t : Constr.term) -> in_k.(Lit.var t.lit) <- true) (Constr.terms c);
          let raw =
            Array.fold_right
              (fun (ct : Problem.cost_term) acc ->
                if in_k.(Lit.var ct.lit) then acc else (ct.cost, ct.lit) :: acc)
              cost_terms []
          in
          Array.iter (fun (t : Constr.term) -> in_k.(Lit.var t.lit) <- false) (Constr.terms c);
          Some (!v, Constr.family raw)
        end
      end
    end
  in
  let cache = Hashtbl.create 16 in
  fun cid ->
    match Hashtbl.find_opt cache cid with
    | Some row -> row
    | None ->
      let row = prepare cid in
      Hashtbl.add cache cid row;
      row

let cardinality_cut problem ~cid ~upper =
  Option.map
    (fun (v, f) -> Constr.family_at f (upper - 1 - v))
    (cardinality_rows problem cid)

(* --- sinks ----------------------------------------------------------------- *)

module Sink = struct
  type target =
    | Chan of out_channel
    | Buf of Buffer.t

  type t = {
    target : target;
    owned : bool;
    lock : Mutex.t;
    mutable closed : bool;
    mutable nlines : int;
    sname : string;
    mutable flush_hook : (lines:int -> seconds:float -> unit) option;
  }

  let open_file path =
    {
      target = Chan (open_out path);
      owned = true;
      lock = Mutex.create ();
      closed = false;
      nlines = 0;
      sname = path;
      flush_hook = None;
    }

  let of_buffer b =
    {
      target = Buf b;
      owned = false;
      lock = Mutex.create ();
      closed = false;
      nlines = 0;
      sname = "<buffer>";
      flush_hook = None;
    }

  let name s = s.sname
  let set_flush_hook s hook = s.flush_hook <- Some hook

  let write s line =
    Mutex.lock s.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.lock)
      (fun () ->
        if not s.closed then begin
          s.nlines <- s.nlines + 1;
          match s.target with
          | Chan oc ->
            output_string oc line;
            output_char oc '\n';
            if s.nlines land 63 = 0 then begin
              match s.flush_hook with
              | None -> flush oc
              | Some hook ->
                (* The hook observes the flush (span/metrics telemetry);
                   the proof layer itself stays telemetry-free. *)
                let t0 = Unix.gettimeofday () in
                flush oc;
                hook ~lines:s.nlines ~seconds:(Unix.gettimeofday () -. t0)
            end
          | Buf b ->
            Buffer.add_string b line;
            Buffer.add_char b '\n'
        end)

  let close s =
    Mutex.lock s.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.lock)
      (fun () ->
        if not s.closed then begin
          s.closed <- true;
          match s.target with
          | Chan oc ->
            (try flush oc with Sys_error _ -> ());
            if s.owned then (try close_out oc with Sys_error _ -> ())
          | Buf _ -> ()
        end)
end

(* --- logger ---------------------------------------------------------------- *)

type conclusion =
  | Optimal of int
  | Unsat
  | Sat of int
  | No_claim

let conclusion_to_string = function
  | Optimal c -> Printf.sprintf "OPTIMAL %d" c
  | Unsat -> "UNSAT"
  | Sat c -> Printf.sprintf "SAT %d" c
  | No_claim -> "NONE"

type t = {
  sink : Sink.t;
  problem : Problem.t;
  mutable nsteps : int;
  mutable nuncertified : int;
  (* Section-local table of derived constraints, mirroring the
     checker's numbering: every [u] step whose clause normalizes to a
     real constraint and every [j] step appends one entry. *)
  mutable derived : Constr.t array;
  mutable nderived : int;
  (* Engine cid -> proof reference, installed after presolve rewrote
     the constraint database: a reduced cid aliases either the
     untouched original constraint (>= 0) or a derived tightening
     (-(k+1)). *)
  mutable cid_map : int array option;
}

let create ?(header = true) sink problem =
  if header then begin
    Sink.write sink ("p " ^ version);
    Sink.write sink (Printf.sprintf "f %d" (Array.length (Problem.constraints problem)))
  end;
  { sink; problem; nsteps = 0; nuncertified = 0; derived = [||]; nderived = 0; cid_map = None }

let steps t = t.nsteps
let uncertified t = t.nuncertified
let derived_count t = t.nderived
let set_cid_map t map = t.cid_map <- Some map

let dpush t c =
  let cap = Array.length t.derived in
  if t.nderived = cap then begin
    let arr = Array.make (max 16 (2 * cap)) c in
    Array.blit t.derived 0 arr 0 t.nderived;
    t.derived <- arr
  end;
  t.derived.(t.nderived) <- c;
  t.nderived <- t.nderived + 1;
  t.nderived - 1

let dget t k = if k >= 0 && k < t.nderived then Some t.derived.(k) else None

let translate_cid t cid =
  if cid < 0 then Some cid
  else
    match t.cid_map with
    | None -> Some cid
    | Some map -> if cid < Array.length map then Some map.(cid) else None

let step t line =
  t.nsteps <- t.nsteps + 1;
  Sink.write t.sink line

let log_comment t msg = Sink.write t.sink ("# " ^ msg)

let log_solution t ~cost model =
  let n = Model.nvars model in
  let bits = Bytes.create n in
  let arr = Model.to_array model in
  for v = 0 to n - 1 do
    Bytes.set bits v (if arr.(v) then '1' else '0')
  done;
  step t (Printf.sprintf "s %d %s" cost (Bytes.to_string bits))

let lit_tokens lits = List.map (fun l -> string_of_int (lit_to_int l)) lits @ [ "0" ]

let log_rup t lits =
  step t (String.concat " " ("u" :: lit_tokens lits));
  match Constr.clause lits with
  | Constr.Constr c -> Some (dpush t c, c)
  | Constr.Trivial_true | Constr.Trivial_false -> None

let log_learned t lits = ignore (log_rup t lits)
let log_contradiction t = ignore (log_rup t [])

let log_cardinality_cut t ~cid =
  match translate_cid t cid with
  | Some c when c >= 0 ->
    step t (Printf.sprintf "d %d" c);
    true
  | Some _ | None -> false

let log_derived t ~refs ~divisor =
  (* Normalize references into proof space first: engine cids go
     through the presolve alias map and may land on derived
     constraints; the emitted tokens must be the translated ones. *)
  let translated =
    List.fold_left
      (fun acc (r, m) ->
        match acc with
        | None -> None
        | Some rs -> (
          match r with
          | Rlit _ | Rderived _ -> Some ((r, m) :: rs)
          | Rcid c -> (
            match translate_cid t c with
            | None -> None
            | Some c' when c' >= 0 -> Some ((Rcid c', m) :: rs)
            | Some c' -> Some ((Rderived (-c' - 1), m) :: rs))))
      (Some []) refs
  in
  match translated with
  | None -> None
  | Some refs_rev -> (
    let refs = List.rev refs_rev in
    let pconstrs = Problem.constraints t.problem in
    let resolve = function
      | Rlit _ -> None
      | Rcid c -> if c >= 0 && c < Array.length pconstrs then Some pconstrs.(c) else None
      | Rderived k -> dget t k
    in
    match derive_combination ~nvars:(Problem.nvars t.problem) ~resolve ~refs ~divisor with
    | None | Some Constr.Trivial_true | Some Constr.Trivial_false -> None
    | Some (Constr.Constr c) ->
      let tok (r, m) =
        match r with
        | Rcid cid -> Printf.sprintf "%d:%d" cid m
        | Rderived k -> Printf.sprintf "x%d:%d" k m
        | Rlit l -> Printf.sprintf "l%d:%d" (lit_to_int l) m
      in
      step t (String.concat " " (("j" :: List.map tok refs) @ [ ";"; string_of_int divisor ]));
      Some (dpush t c, c))

let scale_refs refs =
  List.filter_map
    (fun (cid, m) ->
      if Float.is_nan m || m <= 0. || m > 1e12 then None
      else begin
        let s = Float.round (m *. float_of_int denom) in
        if s < 1. then None else Some (cid, int_of_float s)
      end)
    refs

let log_bound_conflict t ~upper ~omega cert =
  let emit kind refs =
    let ref_tok (c, m) =
      if c >= 0 then Printf.sprintf "%d:%d" c m else Printf.sprintf "x%d:%d" (-c - 1) m
    in
    let toks = (kind :: List.map ref_tok refs) @ (";" :: lit_tokens omega) in
    step t (String.concat " " toks);
    true
  in
  let reject () =
    t.nuncertified <- t.nuncertified + 1;
    false
  in
  let lookup_derived k = dget t k in
  let valid refs ~objective =
    certify_scaled_gen t.problem ~lookup_derived ~refs ~omega ~objective ~upper
  in
  (* Engine cids become proof references (original or derived) before
     validation; an untranslatable ref just weakens the candidate. *)
  let translate rf =
    List.filter_map
      (fun (c, m) ->
        match translate_cid t c with Some c' -> Some (c', m) | None -> None)
      rf
  in
  (* Dual sign conventions differ per simplex exit; validation is exact,
     so try the raw, negated and absolute variants and keep the first
     that certifies.  The path-only certificate (no multipliers) is the
     last resort for objective-bound conflicts. *)
  let variants rf =
    [ rf; List.map (fun (c, m) -> c, -.m) rf; List.map (fun (c, m) -> c, Float.abs m) rf ]
  in
  let first_valid ~objective cands =
    List.find_map
      (fun rf ->
        let refs = scale_refs (translate rf) in
        if valid refs ~objective then Some refs else None)
      cands
  in
  match cert with
  | Cert_path | Cert_bound [] ->
    if valid [] ~objective:true then emit "b" [] else reject ()
  | Cert_bound rf -> (
    match first_valid ~objective:true (variants rf @ [ [] ]) with
    | Some refs -> emit "b" refs
    | None -> reject ())
  | Cert_farkas rf -> (
    match first_valid ~objective:false (variants rf) with
    | Some refs -> emit "y" refs
    | None -> reject ())

let log_conclusion t c = Sink.write t.sink ("c " ^ conclusion_to_string c)

(* --- checker --------------------------------------------------------------- *)

module Check = struct
  type summary = {
    steps : int;
    rup : int;
    bound : int;
    farkas : int;
    solutions : int;
    cuts : int;
    sections : string list;
    verdict : string;
  }

  exception Fail of string

  let failf fmt = Printf.ksprintf (fun msg -> raise (Fail msg)) fmt

  (* Propagation engine over a growing constraint database, hybrid in
     the style of Müssig & Johannsen (arXiv 2511.21417): a constraint
     whose normal form is a clause gets two watched literals, every other
     constraint a slack counter.  Constraints are only ever added (and
     superseded) at the root; RUP checks assume literals on top of the
     root state and undo.  Literals are {!Lit.to_index} values, so the
     negation of [l] is [l lxor 1]. *)

  (* Growable flat int vector. *)
  type ivec = {
    mutable a : int array;
    mutable n : int;
  }

  let ivec () = { a = [||]; n = 0 }

  let ipush v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (max 4 (2 * v.n)) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  type eng = {
    nvars : int;
    value : int array;  (* per literal: 1 true, -1 false, 0 unassigned *)
    trail : int array;
    mutable ntrail : int;
    mutable qhead : int;
    watches : ivec array;  (* literal -> clauses watching it *)
    occs : ivec array;  (* literal -> interleaved (constraint, coeff) pairs *)
    (* Per constraint: a clause's unassigned-at-root literals, watched at
       positions 0 and 1, or a counting constraint's interleaved
       (coeff, literal) terms in decreasing coefficient order. *)
    mutable body : int array array;
    mutable slack : int array;
    mutable dead : bool array;
    mutable ncons : int;
    mutable closed : bool;  (* root state conflicting: everything follows *)
  }

  let assign eng l =
    eng.value.(l) <- 1;
    eng.value.(l lxor 1) <- -1;
    eng.trail.(eng.ntrail) <- l;
    eng.ntrail <- eng.ntrail + 1

  (* A clause watching the falsified [f] moves the watch to another
     non-false literal, or propagates / conflicts on its other watch. *)
  let visit_watches eng f =
    let w = eng.watches.(f) in
    let conflict = ref false in
    let i = ref 0 and j = ref 0 in
    while !i < w.n do
      let ci = w.a.(!i) in
      incr i;
      if not eng.dead.(ci) then begin
        let c = eng.body.(ci) in
        if c.(0) = f then begin
          c.(0) <- c.(1);
          c.(1) <- f
        end;
        let first = c.(0) in
        if eng.value.(first) = 1 then begin
          w.a.(!j) <- ci;
          incr j
        end
        else begin
          let len = Array.length c in
          let k = ref 2 in
          while !k < len && eng.value.(c.(!k)) = -1 do
            incr k
          done;
          if !k < len then begin
            let l = c.(!k) in
            c.(1) <- l;
            c.(!k) <- f;
            ipush eng.watches.(l) ci
          end
          else begin
            w.a.(!j) <- ci;
            incr j;
            if eng.value.(first) = 0 then assign eng first
            else begin
              conflict := true;
              while !i < w.n do
                w.a.(!j) <- w.a.(!i);
                incr i;
                incr j
              done
            end
          end
        end
      end
    done;
    w.n <- !j;
    !conflict

  (* Counting constraints: every live occurrence of [f] loses its
     coefficient from the slack (always completed, so that [undo_to]
     reverses exactly the processed prefix; dead entries are dropped
     here), then each one implies its unassigned literals whose
     coefficient exceeds the slack. *)
  let visit_occs eng f =
    let o = eng.occs.(f) in
    let conflict = ref false in
    let j = ref 0 in
    for k = 0 to (o.n / 2) - 1 do
      let ci = o.a.(2 * k) in
      if not eng.dead.(ci) then begin
        let a = o.a.((2 * k) + 1) in
        o.a.(!j) <- ci;
        o.a.(!j + 1) <- a;
        j := !j + 2;
        let s = eng.slack.(ci) - a in
        eng.slack.(ci) <- s;
        if s < 0 then conflict := true
      end
    done;
    o.n <- !j;
    if not !conflict then
      for k = 0 to (o.n / 2) - 1 do
        let ci = o.a.(2 * k) in
        let s = eng.slack.(ci) in
        let t = eng.body.(ci) in
        let m = ref 0 in
        while !m < Array.length t && t.(!m) > s do
          let l = t.(!m + 1) in
          if eng.value.(l) = 0 then assign eng l;
          m := !m + 2
        done
      done;
    !conflict

  let propagate eng =
    let conflict = ref false in
    while (not !conflict) && eng.qhead < eng.ntrail do
      let f = eng.trail.(eng.qhead) lxor 1 in
      eng.qhead <- eng.qhead + 1;
      conflict := visit_occs eng f || visit_watches eng f
    done;
    !conflict

  let undo_to eng mark =
    while eng.ntrail > mark do
      eng.ntrail <- eng.ntrail - 1;
      let l = eng.trail.(eng.ntrail) in
      eng.value.(l) <- 0;
      eng.value.(l lxor 1) <- 0;
      if eng.ntrail < eng.qhead then begin
        let o = eng.occs.(l lxor 1) in
        for k = 0 to (o.n / 2) - 1 do
          let ci = o.a.(2 * k) in
          eng.slack.(ci) <- eng.slack.(ci) + o.a.((2 * k) + 1)
        done
      end
    done;
    eng.qhead <- min eng.qhead eng.ntrail

  let new_id eng body slack =
    let ci = eng.ncons in
    if ci = Array.length eng.body then begin
      let cap = max 16 (2 * ci) in
      let grow a d =
        let b = Array.make cap d in
        Array.blit a 0 b 0 ci;
        b
      in
      eng.body <- grow eng.body [||];
      eng.slack <- grow eng.slack 0;
      eng.dead <- grow eng.dead false
    end;
    eng.body.(ci) <- body;
    eng.slack.(ci) <- slack;
    eng.ncons <- ci + 1;
    ci

  (* Watch a clause on its first two literals, or index a counting
     constraint's terms by literal.  A unit clause is not attached: its
     caller asserts the literal at the root. *)
  let attach eng ~clause free slack =
    if clause then begin
      match free with
      | [] | [ _ ] -> -1
      | _ :: _ :: _ ->
        let body = Array.of_list (List.map (fun (t : Constr.term) -> Lit.to_index t.lit) free) in
        let ci = new_id eng body 0 in
        ipush eng.watches.(body.(0)) ci;
        ipush eng.watches.(body.(1)) ci;
        ci
    end
    else begin
      let body = Array.make (2 * List.length free) 0 in
      List.iteri
        (fun k (t : Constr.term) ->
          body.(2 * k) <- t.coeff;
          body.((2 * k) + 1) <- Lit.to_index t.lit)
        free;
      let ci = new_id eng body slack in
      List.iter
        (fun (t : Constr.term) ->
          let o = eng.occs.(Lit.to_index t.lit) in
          ipush o ci;
          ipush o t.coeff)
        free;
      ci
    end

  (* Root-level addition, then propagation to fixpoint; a conflict
     latches [closed].  Root assignments are never undone within a
     section, so a root-satisfied constraint is not attached and
     root-assigned literals are left out of the stored body.  Returns
     the attached constraint's id, or -1. *)
  let add_root eng c =
    if eng.closed then -1
    else begin
      let deg = Constr.degree c in
      let sat, free =
        Array.fold_right
          (fun (t : Constr.term) (sat, free) ->
            match eng.value.(Lit.to_index t.lit) with
            | 1 -> sat + t.coeff, free
            | 0 -> sat, t :: free
            | _ -> sat, free)
          (Constr.terms c) (0, [])
      in
      let slack = List.fold_left (fun acc (t : Constr.term) -> acc + t.coeff) (sat - deg) free in
      if sat >= deg then -1
      else if slack < 0 then begin
        eng.closed <- true;
        -1
      end
      else begin
        let ci = attach eng ~clause:(deg = 1) free slack in
        List.iter
          (fun (t : Constr.term) ->
            let l = Lit.to_index t.lit in
            if t.coeff > slack && eng.value.(l) = 0 then assign eng l)
          free;
        if propagate eng then eng.closed <- true;
        ci
      end
    end

  let add_norm eng = function
    | Constr.Trivial_true -> -1
    | Constr.Trivial_false ->
      eng.closed <- true;
      -1
    | Constr.Constr c -> add_root eng c

  (* Retire a constraint entailed by a later one.  Only at the root: the
     id is flagged and its watch and occurrence entries are dropped
     lazily by the next visit. *)
  let kill eng ci =
    if ci >= 0 then begin
      eng.dead.(ci) <- true;
      eng.body.(ci) <- [||]
    end

  let fresh_eng problem =
    let nvars = Problem.nvars problem in
    let eng =
      {
        nvars;
        value = Array.make (2 * nvars) 0;
        trail = Array.make (max nvars 1) 0;
        ntrail = 0;
        qhead = 0;
        watches = Array.init (2 * nvars) (fun _ -> ivec ());
        occs = Array.init (2 * nvars) (fun _ -> ivec ());
        body = [||];
        slack = [||];
        dead = [||];
        ncons = 0;
        closed = Problem.trivially_unsat problem;
      }
    in
    Array.iter (fun c -> ignore (add_root eng c)) (Problem.constraints problem);
    eng

  (* RUP: assume every clause literal false on top of the root state and
     propagate; the check passes iff a conflict is reached (or the
     clause is already root-satisfied / the root is closed).  Callers
     pass non-tautological clauses. *)
  let rup_holds eng clause =
    if eng.closed then true
    else if List.exists (fun l -> eng.value.(Lit.to_index l) = 1) clause then true
    else begin
      let mark = eng.ntrail in
      List.iter
        (fun l ->
          let i = Lit.to_index l in
          if eng.value.(i) = 0 then assign eng (i lxor 1))
        clause;
      let conflict = propagate eng in
      undo_to eng mark;
      conflict
    end

  (* --- replay state -------------------------------------------------- *)

  type section = {
    mutable member : string;
    mutable u_active : int;  (* internal (offset-free) incumbent bound *)
    mutable witness : int option;  (* best verified model cost, offset included *)
    mutable nsteps : int;
    mutable concluded : (conclusion * bool * int * int option) option;
        (* conclusion, closed, u_active, witness at conclusion time *)
  }

  let split_ws s = String.split_on_char ' ' s |> List.filter (fun tok -> tok <> "")

  let int_of tok =
    match int_of_string_opt tok with Some n -> n | None -> failf "bad integer %S" tok

  let parse_lits eng toks =
    let rec go acc = function
      | [] -> failf "missing 0 terminator"
      | [ "0" ] -> List.rev acc
      | tok :: rest ->
        let n = int_of tok in
        if n = 0 then failf "0 terminator before end of literal list";
        let l = lit_of_int n in
        if Lit.var l >= eng.nvars then failf "literal %d out of range" n;
        go (l :: acc) rest
    in
    go [] toks

  let split_ref tok =
    match String.index_opt tok ':' with
    | None -> failf "bad multiplier token %S (want ref:m)" tok
    | Some i ->
      let head = String.sub tok 0 i in
      let m = int_of (String.sub tok (i + 1) (String.length tok - i - 1)) in
      if m < 0 then failf "negative multiplier in %S" tok;
      if head = "" then failf "empty reference in %S" tok;
      head, m

  (* [b]/[y] references: plain cid or [x<k>] derived constraint,
     encoded internally as [-(k+1)]. *)
  let parse_refs toks =
    List.map
      (fun tok ->
        let head, m = split_ref tok in
        if head.[0] = 'x' then begin
          let k = int_of (String.sub head 1 (String.length head - 1)) in
          if k < 0 then failf "bad derived reference %S" tok;
          (-k - 1, m)
        end
        else int_of head, m)
      toks

  (* [j] references additionally allow literal axioms [l<n>:m]. *)
  let parse_drefs toks =
    List.map
      (fun tok ->
        let head, m = split_ref tok in
        let r =
          if head.[0] = 'x' then begin
            let k = int_of (String.sub head 1 (String.length head - 1)) in
            if k < 0 then failf "bad derived reference %S" tok;
            Rderived k
          end
          else if head.[0] = 'l' then begin
            let n = int_of (String.sub head 1 (String.length head - 1)) in
            if n = 0 then failf "bad literal axiom %S" tok;
            Rlit (lit_of_int n)
          end
          else Rcid (int_of head)
        in
        r, m)
      toks

  let rec split_at_semi acc = function
    | [] -> failf "missing ';' separator"
    | ";" :: rest -> List.rev acc, rest
    | tok :: rest -> split_at_semi (tok :: acc) rest

  let parse_conclusion toks =
    match toks with
    | [ "OPTIMAL"; c ] -> Optimal (int_of c)
    | [ "UNSAT" ] -> Unsat
    | [ "SAT"; c ] -> Sat (int_of c)
    | [ "NONE" ] -> No_claim
    | _ -> failf "unknown conclusion %S" (String.concat " " toks)

  let check_lines problem next_line =
    let offset = match Problem.objective problem with Some o -> o.offset | None -> 0 in
    let init_upper = Problem.max_cost_sum problem + 1 in
    let pconstrs = Problem.constraints problem in
    let nconstraints = Array.length pconstrs in
    let eng = ref (fresh_eng problem) in
    (* Section-local derived constraints ([u] clauses and [j] results),
       referenced as [x<k>]; reset together with the engine. *)
    let dt = ref [||] in
    let ndt = ref 0 in
    let dt_push c =
      let cap = Array.length !dt in
      if !ndt = cap then begin
        let arr = Array.make (max 16 (2 * cap)) c in
        Array.blit !dt 0 arr 0 !ndt;
        dt := arr
      end;
      !dt.(!ndt) <- c;
      incr ndt
    in
    let dt_get k = if k >= 0 && k < !ndt then Some !dt.(k) else None in
    (* Supersession slots, reset with the engine: the objective cut of
       the current bound and each cid's latest [d] cut, as (upper, id).
       A cut at a lower bound has the same left-hand side and a degree
       at least as high, so it entails the one in the slot, which is
       then killed. *)
    let obj_slot = ref (max_int, -1) in
    let card_slots = Hashtbl.create 16 in
    let obj_family = objective_family problem in
    let card_row = cardinality_rows problem in
    let supersede slot upper norm =
      let prev_upper, prev = slot in
      if upper >= prev_upper then slot
      else begin
        let ci = add_norm !eng norm in
        kill !eng prev;
        upper, ci
      end
    in
    let reset_engine () =
      eng := fresh_eng problem;
      obj_slot := (max_int, -1);
      Hashtbl.reset card_slots;
      dt := [||];
      ndt := 0
    in
    let fresh_section name =
      {
        member = name;
        u_active = init_upper;
        witness = None;
        nsteps = 0;
        concluded = None;
      }
    in
    let sec = ref (fresh_section "") in
    let done_secs = ref [] in
    let final = ref None in
    let saw_header = ref false in
    let saw_f = ref false in
    let stats_rup = ref 0
    and stats_bound = ref 0
    and stats_farkas = ref 0
    and stats_sols = ref 0
    and stats_cuts = ref 0 in
    let require_open () =
      if not !saw_f then failf "step before 'f' constraint-count line";
      if !final <> None then failf "step after final conclusion";
      if (!sec).concluded <> None then failf "step after section conclusion"
    in
    let handle_line line =
      let toks = split_ws line in
      match toks with
      | [] -> ()
      | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> ()
      | "p" :: rest ->
        if !saw_header then failf "duplicate header";
        if String.concat " " rest <> version then
          failf "unsupported format %S (want %S)" (String.concat " " rest) version;
        saw_header := true
      | [ "f"; n ] ->
        if not !saw_header then failf "'f' before header";
        if !saw_f then failf "duplicate 'f' line";
        if int_of n <> nconstraints then
          failf "constraint count mismatch: proof says %s, problem has %d" n nconstraints;
        saw_f := true
      | "s" :: cost :: [ bits ] ->
        require_open ();
        incr stats_sols;
        let cost = int_of cost in
        if String.length bits <> Problem.nvars problem then
          failf "model length %d, problem has %d variables" (String.length bits)
            (Problem.nvars problem);
        let arr =
          Array.init (Problem.nvars problem) (fun v ->
              match bits.[v] with
              | '0' -> false
              | '1' -> true
              | c -> failf "bad model bit %C" c)
        in
        let model = Model.of_array arr in
        if not (Model.satisfies problem model) then failf "solution violates a constraint";
        let actual = Model.cost problem model in
        if actual <> cost then failf "solution costs %d, step claims %d" actual cost;
        let s = !sec in
        (match s.witness with
        | Some w when w <= cost -> ()
        | _ -> s.witness <- Some cost);
        if cost - offset < s.u_active then s.u_active <- cost - offset;
        (match obj_family with
        | None -> ()
        | Some f ->
          obj_slot := supersede !obj_slot s.u_active (Constr.family_at f (s.u_active - 1)));
        s.nsteps <- s.nsteps + 1
      | "u" :: rest ->
        require_open ();
        incr stats_rup;
        let lits = parse_lits !eng rest in
        (* A tautology holds without propagation and, like the logger,
           gets no derived-table entry. *)
        (match Constr.clause lits with
        | Constr.Trivial_true -> ()
        | norm ->
          if not (rup_holds !eng lits) then failf "RUP check failed";
          ignore (add_norm !eng norm);
          (match norm with Constr.Constr c -> dt_push c | _ -> ()));
        (!sec).nsteps <- (!sec).nsteps + 1
      | kind :: rest when kind = "b" || kind = "y" ->
        require_open ();
        if kind = "b" then incr stats_bound else incr stats_farkas;
        let ref_toks, lit_toks = split_at_semi [] rest in
        let refs = parse_refs ref_toks in
        let omega = parse_lits !eng lit_toks in
        let objective = kind = "b" in
        if
          not
            (certify_scaled_gen problem ~lookup_derived:dt_get ~refs ~omega ~objective
               ~upper:(!sec).u_active
            || (!eng).closed)
        then failf "%s certificate does not justify the clause" kind;
        ignore (add_norm !eng (Constr.clause omega));
        (!sec).nsteps <- (!sec).nsteps + 1
      | "j" :: rest ->
        require_open ();
        incr stats_cuts;
        let ref_toks, div_toks = split_at_semi [] rest in
        let divisor =
          match div_toks with [ d ] -> int_of d | _ -> failf "bad 'j' divisor clause"
        in
        if divisor < 1 then failf "non-positive divisor %d" divisor;
        let refs = parse_drefs ref_toks in
        let resolve = function
          | Rlit _ -> None
          | Rcid c -> if c >= 0 && c < nconstraints then Some pconstrs.(c) else None
          | Rderived k -> dt_get k
        in
        (match derive_combination ~nvars:(Problem.nvars problem) ~resolve ~refs ~divisor with
        | None -> failf "invalid cutting-planes derivation"
        | Some Constr.Trivial_true -> failf "cutting-planes derivation is a tautology"
        | Some Constr.Trivial_false ->
          (!eng).closed <- true;
          (!sec).nsteps <- (!sec).nsteps + 1
        | Some (Constr.Constr c) ->
          ignore (add_norm !eng (Constr.Constr c));
          dt_push c;
          (!sec).nsteps <- (!sec).nsteps + 1)
      | [ "d"; cid ] ->
        require_open ();
        incr stats_cuts;
        let cid = int_of cid in
        let upper = (!sec).u_active in
        (match card_row cid with
        | None -> if not (!eng).closed then failf "no cardinality cut derivable from cid %d" cid
        | Some (v, f) ->
          let n = Constr.family_at f (upper - 1 - v) in
          let slot = Option.value (Hashtbl.find_opt card_slots cid) ~default:(max_int, -1) in
          Hashtbl.replace card_slots cid (supersede slot upper n));
        (!sec).nsteps <- (!sec).nsteps + 1
      | "m" :: [ name ] ->
        if not !saw_f then failf "'m' before 'f'";
        if !final <> None then failf "'m' after final conclusion";
        let s = !sec in
        if s.concluded <> None then begin
          done_secs := s :: !done_secs;
          reset_engine ();
          sec := fresh_section name
        end
        else if s.nsteps = 0 then begin
          (* pristine implicit section: replaced by the first member *)
          reset_engine ();
          sec := fresh_section name
        end
        else failf "member section %S starts before previous section concluded" name
      | "c" :: rest ->
        require_open ();
        let concl = parse_conclusion rest in
        let s = !sec in
        let closed = (!eng).closed in
        (match concl with
        | No_claim -> ()
        | Sat n ->
          if s.witness <> Some n then failf "SAT %d not witnessed by a verified solution" n
        | Optimal n ->
          if s.witness <> Some n then failf "OPTIMAL %d not witnessed by a verified solution" n;
          if not closed then failf "OPTIMAL claimed but no contradiction was derived";
          if s.u_active + offset < n then
            failf "OPTIMAL %d but search was only closed below %d" n (s.u_active + offset)
        | Unsat ->
          if not closed then failf "UNSAT claimed but no contradiction was derived";
          if s.witness <> None then failf "UNSAT claimed but a solution was verified");
        s.concluded <- Some (concl, closed, s.u_active, s.witness)
      | "F" :: rest ->
        if !final <> None then failf "duplicate final conclusion";
        let s = !sec in
        if s.concluded = None then begin
          if s.nsteps > 0 then failf "final conclusion before last section concluded"
        end
        else done_secs := s :: !done_secs;
        let secs = List.rev !done_secs in
        if secs = [] then failf "final conclusion with no concluded sections";
        let concl = parse_conclusion rest in
        let best_witness =
          List.fold_left
            (fun acc (x : section) ->
              match x.concluded with
              | Some (_, _, _, Some w) -> (
                match acc with Some b when b <= w -> acc | _ -> Some w)
              | _ -> acc)
            None secs
        in
        let best_lb =
          List.fold_left
            (fun acc (x : section) ->
              match x.concluded with
              | Some (_, true, u, _) -> max acc (u + offset)
              | _ -> acc)
            offset secs
        in
        let any_unsat =
          List.exists
            (fun (x : section) ->
              match x.concluded with
              | Some (_, true, _, None) -> true
              | _ -> false)
            secs
        in
        (match concl with
        | No_claim -> ()
        | Sat n ->
          if best_witness <> Some n then failf "final SAT %d not witnessed" n
        | Optimal n ->
          if best_witness <> Some n then failf "final OPTIMAL %d not witnessed" n;
          if best_lb < n then
            failf "final OPTIMAL %d but combined sections only close below %d" n best_lb
        | Unsat -> if not any_unsat then failf "final UNSAT not certified by any section");
        done_secs := List.rev secs;
        sec := fresh_section "";
        (!sec).concluded <- Some (No_claim, false, init_upper, None);
        (* sentinel: no further steps *)
        (!sec).nsteps <- 0;
        final := Some concl
      | tok :: _ -> failf "unknown step %S" tok
    in
    let lineno = ref 0 in
    let rec run () =
      match next_line () with
      | None -> ()
      | Some line ->
        incr lineno;
        (try handle_line line with Fail msg -> failf "line %d: %s" !lineno msg);
        run ()
    in
    try
      run ();
      if not !saw_f then failf "missing header or 'f' line";
      let verdict =
        match !final with
        | Some c -> conclusion_to_string c
        | None -> (
          let s = !sec in
          match s.concluded with
          | None ->
            if !done_secs <> [] then failf "multi-section proof missing final conclusion"
            else failf "proof truncated: missing conclusion"
          | Some (c, _, _, _) ->
            if !done_secs <> [] then failf "multi-section proof missing final conclusion"
            else conclusion_to_string c)
      in
      let sections =
        match !done_secs with
        | [] -> [ (!sec).member ]
        | secs -> List.rev_map (fun (x : section) -> x.member) secs
      in
      Ok
        {
          steps =
            !stats_rup + !stats_bound + !stats_farkas + !stats_sols + !stats_cuts;
          rup = !stats_rup;
          bound = !stats_bound;
          farkas = !stats_farkas;
          solutions = !stats_sols;
          cuts = !stats_cuts;
          sections;
          verdict;
        }
    with Fail msg -> Error msg

  let check_string problem text =
    let lines = String.split_on_char '\n' text in
    let rest = ref lines in
    let next () =
      match !rest with
      | [] -> None
      | l :: tl ->
        rest := tl;
        Some l
    in
    check_lines problem next

  let check_file problem path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let next () = In_channel.input_line ic in
        check_lines problem next)
end
