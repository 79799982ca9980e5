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

(* A [b]/[y] certificate is checked by bounding
     B = sum m_i d_i + sum_v min over rho-allowed values of
         [denom * gamma(l_x) - sum_i m_i a_i(l_x)],
   where rho pins every literal of omega false and l_x is the literal
   of v made true by value x.  This is denom times the Lagrangian
   L(m/denom) minimized over the box that the pinning allows, hence a
   valid lower bound on the cost (resp. on constraint surplus when the
   objective is excluded) of any completion falsifying omega.

   A variable outside the referenced constraints and omega has
   min-term [min (denom gamma(x), denom gamma(~x))] = 0, because a
   problem's costs are positive and sit on one literal per variable; so
   a call sums only the variables it touches.  (A cost whose scaled
   value overflows makes every objective certificate reject; such a
   cost is beyond [Constr.coefficient_limit], so no objective cut or
   [s] step can be built for it anyway.)  The scratch below is owned by
   one logger or one check, never shared between domains; [acc], [pin]
   and [seen] are zero again after every call.

   Reference space shared by [b]/[y]/[j] steps: a non-negative integer
   names an original problem constraint, a negative integer [-(k+1)]
   names the [k]-th derived constraint of the current proof section
   (written [x<k>] in the log). *)
type certifier = {
  constraints : Constr.t array;
  scaled : int array;  (* per literal: denom * objective cost *)
  scaled_ok : bool;  (* no [scaled] entry overflowed *)
  acc : int array;  (* per literal: sum_i m_i a_i(l) *)
  pin : int array;  (* per variable: 0 free, 1 pinned true, 2 pinned false *)
  seen : bool array;
  touched : int array;
  mutable ntouched : int;
}

let certifier problem =
  let nvars = Problem.nvars problem in
  let scaled = Array.make (2 * nvars) 0 in
  let scaled_ok =
    try
      Option.iter
        (fun (o : Problem.objective) ->
          Array.iter
            (fun (ct : Problem.cost_term) -> scaled.(Lit.to_index ct.lit) <- mul_exn denom ct.cost)
            o.cost_terms)
        (Problem.objective problem);
      true
    with Overflow -> false
  in
  {
    constraints = Problem.constraints problem;
    scaled;
    scaled_ok;
    acc = Array.make (2 * nvars) 0;
    pin = Array.make nvars 0;
    seen = Array.make nvars false;
    touched = Array.make nvars 0;
    ntouched = 0;
  }

let touch cz v =
  if not cz.seen.(v) then begin
    cz.seen.(v) <- true;
    cz.touched.(cz.ntouched) <- v;
    cz.ntouched <- cz.ntouched + 1
  end

let untouch_all cz =
  for k = 0 to cz.ntouched - 1 do
    let v = cz.touched.(k) in
    cz.seen.(v) <- false;
    cz.pin.(v) <- 0;
    cz.acc.(Lit.to_index (Lit.pos v)) <- 0;
    cz.acc.(Lit.to_index (Lit.neg v)) <- 0
  done;
  cz.ntouched <- 0

(* Exact validation shared by the logger and the checker: [true] when
   [objective] and [B > (upper - 1) denom], or when [not objective] and
   [B > 0].  A negative multiplier or an unresolvable reference (even
   with multiplier 0) rejects; a tautological omega is entailed; an
   overflow anywhere rejects.  Every partial sum has one sign (the
   min-terms are summed by sign), so whether a call overflows does not
   depend on the order it touches variables in.  A dense check that
   adds the min-terms in variable order can overflow on a different
   partial sum: the two agree on every call on which neither
   overflows. *)
let certify cz ~lookup_derived ~refs ~omega ~objective ~upper =
  let nvars = Array.length cz.pin in
  let n = Array.length cz.constraints in
  let resolve cid =
    if cid >= 0 then (if cid < n then Some cz.constraints.(cid) else None)
    else lookup_derived (-cid - 1)
  in
  let compute () =
    if List.exists (fun (cid, m) -> m < 0 || resolve cid = None) refs then false
    else begin
      let tauto = ref false in
      List.iter
        (fun l ->
          let v = Lit.var l in
          if v < nvars then begin
            touch cz v;
            let want = if Lit.is_pos l then 2 else 1 in
            if cz.pin.(v) <> 0 && cz.pin.(v) <> want then tauto := true else cz.pin.(v) <- want
          end)
        omega;
      !tauto
      || begin
        let base = ref 0 in
        List.iter
          (fun (cid, m) ->
            if m > 0 then
              match resolve cid with
              | None -> raise Exit
              | Some c ->
                base := add_exn !base (mul_exn m (Constr.degree c));
                (* [Constr.max_coeff] bounds every coefficient, so no
                   product overflows unless that one's does. *)
                if m > max_int / max 1 (Constr.max_coeff c) then raise Overflow;
                Array.iter
                  (fun (t : Constr.term) ->
                    let i = Lit.to_index t.lit in
                    touch cz (Lit.var t.lit);
                    cz.acc.(i) <- add_exn cz.acc.(i) (m * t.coeff))
                  (Constr.terms c))
          refs;
        if objective && not cz.scaled_ok then raise Overflow;
        let pos = ref !base and neg = ref 0 in
        for k = 0 to cz.ntouched - 1 do
          let v = cz.touched.(k) in
          let term positive =
            let i = Lit.to_index (Lit.make v positive) in
            if objective then add_exn cz.scaled.(i) (-cz.acc.(i)) else -cz.acc.(i)
          in
          let t =
            match cz.pin.(v) with
            | 1 -> term true
            | 2 -> term false
            | _ -> min (term true) (term false)
          in
          if t >= 0 then pos := add_exn !pos t else neg := add_exn !neg t
        done;
        let total = !pos + !neg in
        if objective then total > mul_exn (upper - 1) denom else total > 0
      end
    end
  in
  let verdict = try compute () with Overflow | Exit -> false in
  untouch_all cz;
  verdict

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
   cost terms, filtered from the objective's family at most once per
   cid: a [d] step then only evaluates the degree. *)
let cardinality_rows problem objective =
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
        match objective with
        | Some f when !v > 0 ->
          Array.iter (fun (t : Constr.term) -> in_k.(Lit.var t.lit) <- true) (Constr.terms c);
          let outside = Constr.family_without f (fun v -> in_k.(v)) in
          Array.iter (fun (t : Constr.term) -> in_k.(Lit.var t.lit) <- false) (Constr.terms c);
          Some (!v, outside)
        | Some _ | None -> None
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
    (cardinality_rows problem (objective_family problem) cid)

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

  let write_with s ~chan ~buf =
    Mutex.lock s.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.lock)
      (fun () ->
        if not s.closed then begin
          s.nlines <- s.nlines + 1;
          match s.target with
          | Chan oc ->
            chan oc;
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
            buf b;
            Buffer.add_char b '\n'
        end)

  let write s line =
    write_with s ~chan:(fun oc -> output_string oc line) ~buf:(fun b -> Buffer.add_string b line)

  let write_buffer s line =
    write_with s
      ~chan:(fun oc -> Buffer.output_buffer oc line)
      ~buf:(fun b -> Buffer.add_buffer b line)

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
  (* This logger's own scratch: the line being built and the
     certificate validator.  Portfolio members log from parallel
     domains, so neither may be shared between loggers. *)
  line : Buffer.t;
  cz : certifier;
}

let create ?(header = true) sink problem =
  if header then begin
    Sink.write sink ("p " ^ version);
    Sink.write sink (Printf.sprintf "f %d" (Array.length (Problem.constraints problem)))
  end;
  {
    sink;
    problem;
    nsteps = 0;
    nuncertified = 0;
    derived = [||];
    nderived = 0;
    cid_map = None;
    line = Buffer.create 256;
    cz = certifier problem;
  }

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

(* Steps are built in [t.line]: start with the step's letter, append
   tokens, then [step] writes the buffer out as one line. *)
let start t kind =
  Buffer.clear t.line;
  Buffer.add_char t.line kind

let step t =
  t.nsteps <- t.nsteps + 1;
  Sink.write_buffer t.sink t.line

(* Decimal digits of [n], the bytes [string_of_int] gives, with no
   intermediate string: digits are produced from the non-positive
   [-|n|] so that [min_int] needs no special case. *)
let add_int b n =
  let rec digits x =
    if x <= -10 then digits (x / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (x mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char b '-';
    digits n
  end
  else digits (-n)

let add_lits b lits =
  List.iter
    (fun l ->
      Buffer.add_char b ' ';
      add_int b (lit_to_int l))
    lits;
  Buffer.add_string b " 0"

(* [ref:m]: a plain cid, or [x<k>] for the derived reference [-(k+1)]. *)
let add_ref b (c, m) =
  Buffer.add_char b ' ';
  if c < 0 then begin
    Buffer.add_char b 'x';
    add_int b (-c - 1)
  end
  else add_int b c;
  Buffer.add_char b ':';
  add_int b m

let log_comment t msg = Sink.write t.sink ("# " ^ msg)

let log_solution t ~cost model =
  let arr = Model.to_array model in
  start t 's';
  Buffer.add_char t.line ' ';
  add_int t.line cost;
  Buffer.add_char t.line ' ';
  Array.iter (fun x -> Buffer.add_char t.line (if x then '1' else '0')) arr;
  step t

let log_rup t lits =
  start t 'u';
  add_lits t.line lits;
  step t;
  match Constr.clause lits with
  | Constr.Constr c -> Some (dpush t c, c)
  | Constr.Trivial_true | Constr.Trivial_false -> None

let log_learned t lits = ignore (log_rup t lits)
let log_contradiction t = ignore (log_rup t [])

let log_cardinality_cut t ~cid =
  match translate_cid t cid with
  | Some c when c >= 0 ->
    start t 'd';
    Buffer.add_char t.line ' ';
    add_int t.line c;
    step t;
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
      let b = t.line in
      start t 'j';
      List.iter
        (fun (r, m) ->
          match r with
          | Rcid cid -> add_ref b (cid, m)
          | Rderived k -> add_ref b (-k - 1, m)
          | Rlit l ->
            Buffer.add_string b " l";
            add_int b (lit_to_int l);
            Buffer.add_char b ':';
            add_int b m)
        refs;
      Buffer.add_string b " ; ";
      add_int b divisor;
      step t;
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
    start t kind;
    List.iter (add_ref t.line) refs;
    Buffer.add_string t.line " ;";
    add_lits t.line omega;
    step t;
    true
  in
  let reject () =
    t.nuncertified <- t.nuncertified + 1;
    false
  in
  let lookup_derived k = dget t k in
  (* Engine cids become proof references (original or derived) before
     validation; an untranslatable ref just weakens the candidate. *)
  let attempt ~objective rf =
    let refs =
      scale_refs
        (List.filter_map
           (fun (c, m) -> match translate_cid t c with Some c' -> Some (c', m) | None -> None)
           rf)
    in
    if certify t.cz ~lookup_derived ~refs ~omega ~objective ~upper then Some refs else None
  in
  (* Dual sign conventions differ per simplex exit; validation is exact,
     so try the raw, negated and absolute variants, each built only when
     the previous one failed, and keep the first that certifies.  The
     path-only certificate (no multipliers) is the last resort for
     objective-bound conflicts. *)
  let first_valid ~objective ~path rf =
    let variants =
      [
        (fun () -> rf);
        (fun () -> List.map (fun (c, m) -> c, -.m) rf);
        (fun () -> List.map (fun (c, m) -> c, Float.abs m) rf);
      ]
    in
    match List.find_map (fun variant -> attempt ~objective (variant ())) variants with
    | None when path -> attempt ~objective []
    | found -> found
  in
  match cert with
  | Cert_path | Cert_bound [] -> (
    match attempt ~objective:true [] with Some refs -> emit 'b' refs | None -> reject ())
  | Cert_bound rf -> (
    match first_valid ~objective:true ~path:true rf with
    | Some refs -> emit 'b' refs
    | None -> reject ())
  | Cert_farkas rf -> (
    match first_valid ~objective:false ~path:false rf with
    | Some refs -> emit 'y' refs
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
    mark : bool array;  (* per literal, false outside [add_clause] *)
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

  (* Root-level addition of the clause [lits], then propagation to
     fixpoint; a conflict latches [closed].  Repeated literals count
     once; a tautology or a root-satisfied clause is not attached, a
     unit is asserted, and a clause with two or more literals still free
     at the root is watched on the last two of them in [lits] order.
     Returns the watched clause's id, or -1. *)
  let add_clause eng lits =
    if eng.closed then -1
    else begin
      let sat = ref false and free = ref [] in
      List.iter
        (fun l ->
          let i = Lit.to_index l in
          match eng.value.(i) with
          | 1 -> sat := true
          | 0 ->
            if eng.mark.(i lxor 1) then sat := true
            else if not eng.mark.(i) then begin
              eng.mark.(i) <- true;
              free := i :: !free
            end
          | _ -> ())
        lits;
      List.iter (fun i -> eng.mark.(i) <- false) !free;
      if !sat then -1
      else
        match !free with
        | [] ->
          eng.closed <- true;
          -1
        | [ l ] ->
          assign eng l;
          if propagate eng then eng.closed <- true;
          -1
        | free ->
          let body = Array.of_list free in
          let ci = new_id eng body 0 in
          ipush eng.watches.(body.(0)) ci;
          ipush eng.watches.(body.(1)) ci;
          ci
    end

  (* Root-level addition, then propagation to fixpoint; a conflict
     latches [closed].  Root assignments are never undone within a
     section, so a root-satisfied constraint is not attached and
     root-assigned literals are left out of the stored body.  A clause
     (degree 1) goes through [add_clause], watched on its first two free
     terms; any other constraint indexes its free terms by literal.
     Returns the attached constraint's id, or -1. *)
  let add_root eng c =
    if Constr.degree c = 1 then
      add_clause eng (Array.fold_left (fun acc (t : Constr.term) -> t.lit :: acc) [] (Constr.terms c))
    else if eng.closed then -1
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
        let body = Array.make (2 * List.length free) 0 in
        List.iteri
          (fun k (t : Constr.term) ->
            body.(2 * k) <- t.coeff;
            body.((2 * k) + 1) <- Lit.to_index t.lit)
          free;
        let ci = new_id eng body slack in
        List.iter
          (fun (t : Constr.term) ->
            let l = Lit.to_index t.lit in
            let o = eng.occs.(l) in
            ipush o ci;
            ipush o t.coeff;
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

  (* Raise the degree of attached counting constraint [ci] by [delta] at
     the root: its slack drops by as much, every literal whose
     coefficient now exceeds the slack is implied, and propagation runs
     to fixpoint.  Same root state as adding the tighter constraint and
     killing [ci], without a second body or dead occurrence entries. *)
  let tighten eng ci delta =
    if (not eng.closed) && delta > 0 then begin
      let s = eng.slack.(ci) - delta in
      eng.slack.(ci) <- s;
      if s < 0 then eng.closed <- true
      else begin
        let t = eng.body.(ci) in
        let m = ref 0 in
        while !m < Array.length t && t.(!m) > s do
          let l = t.(!m + 1) in
          if eng.value.(l) = 0 then assign eng l;
          m := !m + 2
        done;
        if propagate eng then eng.closed <- true
      end
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
        mark = Array.make (2 * nvars) false;
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

  (* --- tokens -------------------------------------------------------- *)

  (* One line's space-separated tokens as interleaved (start, stop)
     offsets, found in one scan.  A token's text is copied out only for
     an error message, a rare step or a non-decimal integer. *)
  type line = {
    mutable text : string;
    spans : ivec;
  }

  let tokenize ln text =
    ln.text <- text;
    ln.spans.n <- 0;
    let len = String.length text in
    let i = ref 0 in
    while !i < len do
      if String.unsafe_get text !i = ' ' then incr i
      else begin
        ipush ln.spans !i;
        while !i < len && String.unsafe_get text !i <> ' ' do
          incr i
        done;
        ipush ln.spans !i
      end
    done

  let ntoks ln = ln.spans.n / 2
  let tok_start ln k = ln.spans.a.(2 * k)
  let tok_stop ln k = ln.spans.a.((2 * k) + 1)
  let tok ln k = String.sub ln.text (tok_start ln k) (tok_stop ln k - tok_start ln k)

  let tok_is ln k s =
    let a = tok_start ln k in
    let len = String.length s in
    tok_stop ln k - a = len
    &&
    let rec eq i = i = len || (ln.text.[a + i] = s.[i] && eq (i + 1)) in
    eq 0

  let int_of tok =
    match int_of_string_opt tok with Some n -> n | None -> failf "bad integer %S" tok

  (* The integer spelled by [text.[a..b)]. *)
  let int_in text a b = int_of (String.sub text a (b - a))

  let tok_int ln k = int_in ln.text (tok_start ln k) (tok_stop ln k)

  (* Tokens [k0, stop) as a literal list closed by a final ["0"]. *)
  let parse_lits eng ln k0 stop =
    let rec go acc k =
      if k >= stop then failf "missing 0 terminator"
      else if k = stop - 1 && tok_is ln k "0" then List.rev acc
      else begin
        let n = tok_int ln k in
        if n = 0 then failf "0 terminator before end of literal list";
        let l = lit_of_int n in
        if Lit.var l >= eng.nvars then failf "literal %d out of range" n;
        go (l :: acc) (k + 1)
      end
    in
    go [] k0

  (* Index of the first [";"] token from [k0] on. *)
  let find_semi ln k0 =
    let rec go k =
      if k >= ntoks ln then failf "missing ';' separator"
      else if tok_is ln k ";" then k
      else go (k + 1)
    in
    go k0

  (* Token [k] as [head:m]: the offset of the colon and [m]. *)
  let split_ref ln k =
    let text = ln.text and a = tok_start ln k and b = tok_stop ln k in
    let rec colon i = if i < b && text.[i] <> ':' then colon (i + 1) else i in
    let i = colon a in
    if i = b then failf "bad multiplier token %S (want ref:m)" (tok ln k);
    let m = int_in text (i + 1) b in
    if m < 0 then failf "negative multiplier in %S" (tok ln k);
    if i = a then failf "empty reference in %S" (tok ln k);
    i, m

  (* [x<k>] in token [k] before the colon at [i]; [k >= 0]. *)
  let derived_ref ln k i =
    let d = int_in ln.text (tok_start ln k + 1) i in
    if d < 0 then failf "bad derived reference %S" (tok ln k);
    d

  (* [b]/[y] references in tokens [k0, stop): plain cid or [x<k>]
     derived constraint, encoded internally as [-(k+1)]. *)
  let parse_refs ln k0 stop =
    List.init (stop - k0) (fun j ->
        let k = k0 + j in
        let i, m = split_ref ln k in
        if ln.text.[tok_start ln k] = 'x' then (-derived_ref ln k i - 1, m)
        else int_in ln.text (tok_start ln k) i, m)

  (* [j] references additionally allow literal axioms [l<n>:m]. *)
  let parse_drefs ln k0 stop =
    List.init (stop - k0) (fun j ->
        let k = k0 + j in
        let i, m = split_ref ln k in
        let r =
          match ln.text.[tok_start ln k] with
          | 'x' -> Rderived (derived_ref ln k i)
          | 'l' ->
            let n = int_in ln.text (tok_start ln k + 1) i in
            if n = 0 then failf "bad literal axiom %S" (tok ln k);
            Rlit (lit_of_int n)
          | _ -> Rcid (int_in ln.text (tok_start ln k) i)
        in
        r, m)

  let parse_conclusion toks =
    match toks with
    | [ "OPTIMAL"; c ] -> Optimal (int_of c)
    | [ "UNSAT" ] -> Unsat
    | [ "SAT"; c ] -> Sat (int_of c)
    | [ "NONE" ] -> No_claim
    | _ -> failf "unknown conclusion %S" (String.concat " " toks)

  (* --- replay state -------------------------------------------------- *)

  type section = {
    mutable member : string;
    mutable u_active : int;  (* internal (offset-free) incumbent bound *)
    mutable witness : int option;  (* best verified model cost, offset included *)
    mutable nsteps : int;
    mutable concluded : (conclusion * bool * int * int option) option;
        (* conclusion, closed, u_active, witness at conclusion time *)
  }

  (* A supersession slot: the live cut of one family (the objective cut,
     or one cid's [d] cut), the bound it was made at and its engine id
     ([-1] when it was not attached). *)
  type slot = {
    upper : int;
    id : int;
    cut : Constr.t option;
  }

  let empty_slot = { upper = max_int; id = -1; cut = None }

  let check_lines problem next_line =
    let offset = match Problem.objective problem with Some o -> o.offset | None -> 0 in
    let init_upper = Problem.max_cost_sum problem + 1 in
    let pconstrs = Problem.constraints problem in
    let nconstraints = Array.length pconstrs in
    let nvars = Problem.nvars problem in
    let eng = ref (fresh_eng problem) in
    (* This check's own scratch: the current line's tokens and the
       certificate validator. *)
    let ln = { text = ""; spans = ivec () } in
    let cz = certifier problem in
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
       the current bound and each cid's latest [d] cut.  A cut at a
       lower bound has the same left-hand side and a degree at least as
       high, so it entails the one in the slot.  When it shares the
       slot's term array ([Constr.family_at] short of saturation) the
       slot's counting constraint is tightened in place; otherwise the
       new cut is added and the old one killed. *)
    let obj_slot = ref empty_slot in
    let card_slots = Hashtbl.create 16 in
    let obj_family = objective_family problem in
    let card_row = cardinality_rows problem obj_family in
    let supersede slot upper norm =
      if upper >= slot.upper then slot
      else
        match norm, slot.cut with
        | Constr.Constr c, Some old
          when slot.id >= 0
               && Constr.terms c == Constr.terms old
               && Constr.degree old > 1
               && Constr.degree c >= Constr.degree old ->
          tighten !eng slot.id (Constr.degree c - Constr.degree old);
          { upper; id = slot.id; cut = Some c }
        | _ ->
          let id = add_norm !eng norm in
          kill !eng slot.id;
          { upper; id; cut = (match norm with Constr.Constr c -> Some c | _ -> None) }
    in
    let reset_engine () =
      eng := fresh_eng problem;
      obj_slot := empty_slot;
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
    let count_step () = (!sec).nsteps <- (!sec).nsteps + 1 in
    (* [p], [f], [m], [c], [F] and unknown steps, on copied tokens. *)
    let rare_step toks =
      match toks with
      | [] -> ()
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
    let handle_line text =
      tokenize ln text;
      let nt = ntoks ln in
      let kind =
        if nt = 0 then ' '
        else if tok_stop ln 0 - tok_start ln 0 = 1 || text.[tok_start ln 0] = '#' then
          text.[tok_start ln 0]
        else '?'
      in
      match kind with
      | ' ' | '#' -> ()
      | 's' when nt = 3 ->
        require_open ();
        incr stats_sols;
        let cost = tok_int ln 1 in
        let b0 = tok_start ln 2 in
        let nbits = tok_stop ln 2 - b0 in
        if nbits <> nvars then failf "model length %d, problem has %d variables" nbits nvars;
        let arr =
          Array.init nvars (fun v ->
              match text.[b0 + v] with
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
        count_step ()
      | 'u' ->
        require_open ();
        incr stats_rup;
        let lits = parse_lits !eng ln 1 nt in
        (* A tautology holds without propagation and, like the logger,
           gets no derived-table entry. *)
        (match Constr.clause lits with
        | Constr.Trivial_true -> ()
        | norm ->
          if not (rup_holds !eng lits) then failf "RUP check failed";
          ignore (add_norm !eng norm);
          (match norm with Constr.Constr c -> dt_push c | _ -> ()));
        count_step ()
      | ('b' | 'y') as kind ->
        require_open ();
        if kind = 'b' then incr stats_bound else incr stats_farkas;
        let semi = find_semi ln 1 in
        let refs = parse_refs ln 1 semi in
        let omega = parse_lits !eng ln (semi + 1) nt in
        let objective = kind = 'b' in
        if
          not
            (certify cz ~lookup_derived:dt_get ~refs ~omega ~objective ~upper:(!sec).u_active
            || (!eng).closed)
        then failf "%c certificate does not justify the clause" kind;
        ignore (add_clause !eng omega);
        count_step ()
      | 'j' ->
        require_open ();
        incr stats_cuts;
        let semi = find_semi ln 1 in
        if nt - semi <> 2 then failf "bad 'j' divisor clause";
        let divisor = tok_int ln (semi + 1) in
        if divisor < 1 then failf "non-positive divisor %d" divisor;
        let refs = parse_drefs ln 1 semi in
        let resolve = function
          | Rlit _ -> None
          | Rcid c -> if c >= 0 && c < nconstraints then Some pconstrs.(c) else None
          | Rderived k -> dt_get k
        in
        (match derive_combination ~nvars ~resolve ~refs ~divisor with
        | None -> failf "invalid cutting-planes derivation"
        | Some Constr.Trivial_true -> failf "cutting-planes derivation is a tautology"
        | Some Constr.Trivial_false -> (!eng).closed <- true
        | Some (Constr.Constr c) ->
          ignore (add_norm !eng (Constr.Constr c));
          dt_push c);
        count_step ()
      | 'd' when nt = 2 ->
        require_open ();
        incr stats_cuts;
        let cid = tok_int ln 1 in
        let upper = (!sec).u_active in
        (match card_row cid with
        | None -> if not (!eng).closed then failf "no cardinality cut derivable from cid %d" cid
        | Some (v, f) ->
          let n = Constr.family_at f (upper - 1 - v) in
          let slot = Option.value (Hashtbl.find_opt card_slots cid) ~default:empty_slot in
          Hashtbl.replace card_slots cid (supersede slot upper n));
        count_step ()
      | _ -> rare_step (List.init nt (tok ln))
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
