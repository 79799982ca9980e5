type cost_term = {
  cost : int;
  lit : Lit.t;
}

type objective = {
  cost_terms : cost_term array;
  offset : int;
}

type t = {
  nvars : int;
  constraints : Constr.t array;
  objective : objective option;
  trivially_unsat : bool;
}

let max_variable_index = 1 lsl 24
let nvars p = p.nvars
let constraints p = p.constraints
let objective p = p.objective
let is_satisfaction p = p.objective = None
let trivially_unsat p = p.trivially_unsat

let max_cost_sum p =
  match p.objective with
  | None -> 0
  | Some o -> Array.fold_left (fun acc t -> acc + t.cost) 0 o.cost_terms

let cost_of_var p v =
  match p.objective with
  | None -> None
  | Some o ->
    let matching t = Lit.var t.lit = v in
    (match Array.find_opt matching o.cost_terms with
    | None -> None
    | Some t -> Some (t.cost, t.lit))

let with_constraints p extra =
  { p with constraints = Array.append p.constraints (Array.of_list extra) }

let pp ppf p =
  (match p.objective with
  | None -> ()
  | Some o ->
    let pp_term ppf t = Format.fprintf ppf "%d %a" t.cost Lit.pp t.lit in
    Format.fprintf ppf "@[min: %a (+%d)@]@."
      (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf " +@ ") pp_term)
      (Array.to_seq o.cost_terms) o.offset);
  Array.iter (fun c -> Format.fprintf ppf "%a@." Constr.pp c) p.constraints

(* Normalize raw objective terms to positive costs on literals plus an
   offset, merging per variable: [p*x + n*~x = n + (p - n)*x] when
   [p >= n], and symmetrically otherwise. *)
let normalize_objective raw offset =
  let tbl = Hashtbl.create 16 in
  let add (c, l) =
    let v = Lit.var l in
    let p, n = try Hashtbl.find tbl v with Not_found -> 0, 0 in
    let entry = if Lit.is_pos l then p + c, n else p, n + c in
    Hashtbl.replace tbl v entry
  in
  List.iter add raw;
  let offset = ref offset in
  let out = ref [] in
  let collect v (p, n) =
    if p >= n then begin
      offset := !offset + n;
      if p > n then out := { cost = p - n; lit = Lit.pos v } :: !out
    end
    else begin
      offset := !offset + p;
      out := { cost = n - p; lit = Lit.neg v } :: !out
    end
  in
  Hashtbl.iter collect tbl;
  let cost_terms = Array.of_list !out in
  let by_var t1 t2 = compare (Lit.var t1.lit) (Lit.var t2.lit) in
  Array.sort by_var cost_terms;
  { cost_terms; offset = !offset }

module Builder = struct
  type t = {
    mutable next_var : int;
    mutable constrs : Constr.t list;
    mutable unsat : bool;
    mutable obj : objective option;
  }

  let create ?(nvars = 0) () = { next_var = nvars; constrs = []; unsat = false; obj = None }

  let fresh_var b =
    let v = b.next_var in
    b.next_var <- v + 1;
    v

  let nvars b = b.next_var

  let note_vars b raw =
    let bump (_, l) = b.next_var <- max b.next_var (Lit.var l + 1) in
    List.iter bump raw

  let add_norm b = function
    | Constr.Trivial_true -> ()
    | Constr.Trivial_false -> b.unsat <- true
    | Constr.Constr c -> b.constrs <- c :: b.constrs

  let add_rel b raw rel rhs =
    note_vars b raw;
    List.iter (add_norm b) (Constr.of_relation raw rel rhs)

  let add_ge b raw rhs = add_rel b raw Constr.Ge rhs
  let add_le b raw rhs = add_rel b raw Constr.Le rhs
  let add_eq b raw rhs = add_rel b raw Constr.Eq rhs
  let add_clause b lits = add_ge b (List.map (fun l -> 1, l) lits) 1
  let add_cardinality b lits k = add_ge b (List.map (fun l -> 1, l) lits) k

  (* Every incumbent cut is a sum over these costs with a bound below
     their sum, so a cost or a sum that no [Constr] can hold is refused
     here rather than at the first incumbent. *)
  let set_objective b ?(offset = 0) raw =
    if b.obj <> None then invalid_arg "Problem.Builder.set_objective: already set";
    let too_large () = invalid_arg "Problem.Builder.set_objective: cost too large" in
    let limit = Constr.coefficient_limit in
    List.iter (fun (c, _) -> if c > limit || c < -limit then too_large ()) raw;
    let o = normalize_objective raw offset in
    ignore
      (Array.fold_left
         (fun sum t ->
           if t.cost > limit || sum + t.cost > Constr.degree_limit then too_large ();
           sum + t.cost)
         0 o.cost_terms);
    note_vars b raw;
    b.obj <- Some o

  let build b =
    {
      nvars = b.next_var;
      constraints = Array.of_list (List.rev b.constrs);
      objective = b.obj;
      trivially_unsat = b.unsat;
    }
end
