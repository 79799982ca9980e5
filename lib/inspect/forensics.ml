(* Pruning forensics: reconstruct the search tree from a flight
   recording and attribute every closed subtree to what closed it.

   The reconstruction is a single pass with a stack of open decisions.
   A Decision at level L pushes; a Backjump or Prune to level T pops
   every open decision deeper than T and credits each popped node to the
   closing event's blame — the LB procedure (or "path") for prunes,
   "conflict" for logical-conflict backjumps, "restart" for restarts.
   Decisions still open when the file ends are credited to "open".
   Every decision is pushed once and popped at most once, so blame
   totals plus the prune events themselves add up to the engine's node
   count (bsolo counts a node per decision *and* per bound-conflict
   prune), which the renderer reconciles against the recorded fin.

   Wasted work per blame: the number of nodes explored strictly inside
   the subtrees it closed.  A watermark keeps the ranges disjoint when
   nested subtrees are closed by successive events, so the total never
   exceeds the node count. *)

module R = Telemetry.Recorder

type blame_row = {
  b_blame : string;
  b_by_band : int array;
  b_total : int;
  b_prunes : int;
  b_wasted : int;
}

type stall = {
  st_from_us : int;
  st_to_us : int;
  st_decisions : int;
  st_conflicts : int;
  st_prunes : int;
  st_lb_evals : int;
}

type analysis = {
  a_member : string option;
  a_events : int;
  a_decisions : int;
  a_prune_events : int;
  a_accounted : int;
  a_fin : (string * int) option;
  a_max_depth : int;
  a_band : int;
  a_bands : int;
  a_blame : blame_row list;
  a_incumbents : (int * int) list;
  a_imports : (int * int * string) list;
  a_root_lb : (int * int) list;
  a_stalls : stall list;
}

(* Split a stitched recording into its member sections; a recording
   without section lines is one anonymous section. *)
let split_sections events =
  let rec go name rev acc = function
    | [] -> List.rev ((name, List.rev rev) :: acc)
    | (_, R.Section n) :: rest ->
      let acc = if name = None && rev = [] then acc else (name, List.rev rev) :: acc in
      go (Some n) [] acc rest
    | ev :: rest -> go name (ev :: rev) acc rest
  in
  go None [] [] events

type blame_acc = {
  mutable c_by_band : int array;
  mutable c_total : int;
  mutable c_prunes : int;
  mutable c_wasted : int;
}

let analyze_section (member, events) =
  let max_depth =
    List.fold_left
      (fun m (_, e) -> match e with R.Decision { level; _ } -> max m level | _ -> m)
      0 events
  in
  (* At most 8 equal-width depth bands. *)
  let band = max 1 ((max_depth + 7) / 8) in
  let bands = max 1 ((max_depth + band - 1) / band) in
  let rows : (string, blame_acc) Hashtbl.t = Hashtbl.create 8 in
  let row blame =
    match Hashtbl.find_opt rows blame with
    | Some r -> r
    | None ->
      let r = { c_by_band = Array.make bands 0; c_total = 0; c_prunes = 0; c_wasted = 0 } in
      Hashtbl.add rows blame r;
      r
  in
  (* stack of open decisions, deepest first: (level, nodes when pushed) *)
  let stack = ref [] in
  let nodes = ref 0 in
  let watermark = ref 0 in
  let decisions = ref 0 and prune_events = ref 0 and conflicts = ref 0 and lb_evals = ref 0 in
  let fin = ref None in
  let incumbents = ref [] and imports = ref [] and root_lb = ref [] in
  let best_root = ref min_int in
  (* stall tracking: movement = incumbent, import or root-lb raise *)
  let stalls = ref [] in
  let seg_from = ref None in
  let seg_d = ref 0 and seg_c = ref 0 and seg_p = ref 0 and seg_l = ref 0 in
  let note_activity t =
    if !seg_from = None then seg_from := Some t
  in
  let movement t =
    (match !seg_from with
    | Some f when t > f ->
      stalls :=
        {
          st_from_us = f;
          st_to_us = t;
          st_decisions = !seg_d;
          st_conflicts = !seg_c;
          st_prunes = !seg_p;
          st_lb_evals = !seg_l;
        }
        :: !stalls
    | Some _ | None -> ());
    seg_from := Some t;
    seg_d := 0;
    seg_c := 0;
    seg_p := 0;
    seg_l := 0
  in
  let close ~blame ~to_level ~is_prune =
    let r = row blame in
    if is_prune then r.c_prunes <- r.c_prunes + 1;
    let rec pop acc = function
      | (lvl, at) :: rest when lvl > to_level -> pop ((lvl, at) :: acc) rest
      | rest -> acc, rest
    in
    let popped, rest = pop [] !stack in
    stack := rest;
    List.iter
      (fun (lvl, _) ->
        let b = min (bands - 1) ((max 1 lvl - 1) / band) in
        r.c_by_band.(b) <- r.c_by_band.(b) + 1;
        r.c_total <- r.c_total + 1)
      popped;
    (* popped is shallowest-first: the whole closed subtree was explored
       after the shallowest popped decision was made *)
    match popped with
    | (_, at) :: _ ->
      let base = max at !watermark in
      r.c_wasted <- r.c_wasted + max 0 (!nodes - base);
      watermark := max !watermark !nodes
    | [] -> ()
  in
  List.iter
    (fun (t, e) ->
      note_activity t;
      match e with
      | R.Section _ -> ()
      | R.Decision { level; _ } ->
        incr decisions;
        incr nodes;
        incr seg_d;
        stack := (level, !nodes) :: !stack
      | R.Backjump { to_level; _ } ->
        incr conflicts;
        incr seg_c;
        close ~blame:"conflict" ~to_level ~is_prune:false
      | R.Prune { blame; to_level; _ } ->
        incr prune_events;
        incr nodes;
        incr seg_p;
        close ~blame ~to_level ~is_prune:true
      | R.Restart -> close ~blame:"restart" ~to_level:0 ~is_prune:false
      | R.Lb_eval { value; path; _ } ->
        incr lb_evals;
        incr seg_l;
        (* an evaluation with no open decision bounds the whole problem *)
        if !stack = [] && path + value > !best_root then begin
          best_root := path + value;
          root_lb := (t, path + value) :: !root_lb;
          movement t
        end
      | R.Incumbent { cost } ->
        incumbents := (t, cost) :: !incumbents;
        movement t
      | R.Import { cost; member } ->
        imports := (t, cost, member) :: !imports;
        movement t
      | R.Learned _ | R.Gap _ -> ()
      | R.Fin { status; nodes = n; _ } -> fin := Some (status, n))
    events;
  (* whatever is still open was never closed before the file ended *)
  (match !stack with
  | [] -> ()
  | _ ->
    let r = row "open" in
    List.iter
      (fun (lvl, _) ->
        let b = min (bands - 1) ((max 1 lvl - 1) / band) in
        r.c_by_band.(b) <- r.c_by_band.(b) + 1;
        r.c_total <- r.c_total + 1)
      !stack);
  (* the run's tail is a stall too if nothing moved at the end *)
  (match !seg_from, events with
  | Some f, _ :: _ ->
    let last_t = fst (List.nth events (List.length events - 1)) in
    if last_t > f && (!seg_d > 0 || !seg_c > 0 || !seg_p > 0 || !seg_l > 0) then
      stalls :=
        {
          st_from_us = f;
          st_to_us = last_t;
          st_decisions = !seg_d;
          st_conflicts = !seg_c;
          st_prunes = !seg_p;
          st_lb_evals = !seg_l;
        }
        :: !stalls
  | _ -> ());
  let blame =
    Hashtbl.fold
      (fun b_blame r acc ->
        {
          b_blame;
          b_by_band = r.c_by_band;
          b_total = r.c_total;
          b_prunes = r.c_prunes;
          b_wasted = r.c_wasted;
        }
        :: acc)
      rows []
    |> List.sort (fun a b ->
           match compare b.b_total a.b_total with 0 -> compare a.b_blame b.b_blame | c -> c)
  in
  let accounted = List.fold_left (fun s r -> s + r.b_total) 0 blame + !prune_events in
  {
    a_member = member;
    a_events = List.length events;
    a_decisions = !decisions;
    a_prune_events = !prune_events;
    a_accounted = accounted;
    a_fin = !fin;
    a_max_depth = max_depth;
    a_band = band;
    a_bands = bands;
    a_blame = blame;
    a_incumbents = List.rev !incumbents;
    a_imports = List.rev !imports;
    a_root_lb = List.rev !root_lb;
    a_stalls =
      List.sort
        (fun a b -> compare (b.st_to_us - b.st_from_us) (a.st_to_us - a.st_from_us))
        !stalls;
  }

let analyze (rc : R.recording) = List.map analyze_section (split_sections rc.r_events)

(* --- node drill-down -------------------------------------------------------- *)

type node_fate = {
  n_index : int;
  n_t_us : int;
  n_level : int;
  n_lit : string;
  n_path : (int * string) list;
  n_closed_by : string option;
  n_subtree : int;
}

let lit_string var value = Printf.sprintf "%sx%d" (if value then "" else "~") (var + 1)

let node_fate (rc : R.recording) n =
  if n < 1 then Error "node numbers are 1-based"
  else begin
    (* stack of (level, lit) for the current path *)
    let stack = ref [] in
    let count = ref 0 in
    let target = ref None in  (* (t, level, lit, path) once found *)
    let closed = ref None in
    let subtree = ref 0 in
    let close_to ~to_level ev =
      (match !target, !closed with
      | Some (_, lvl, _, _), None when to_level < lvl ->
        closed := Some (Telemetry.Json.to_string (R.to_json ev))
      | _ -> ());
      stack := List.filter (fun (lvl, _) -> lvl <= to_level) !stack
    in
    List.iter
      (fun (t, e) ->
        match e with
        | R.Decision { level; var; value } ->
          incr count;
          let lit = lit_string var value in
          stack := (level, lit) :: !stack;
          if !count = n then target := Some (t, level, lit, List.rev !stack)
          else if !count > n && !target <> None && !closed = None then incr subtree
        | R.Backjump { to_level; _ } -> close_to ~to_level e
        | R.Prune { to_level; _ } -> close_to ~to_level e
        | R.Restart -> close_to ~to_level:0 e
        | _ -> ())
      rc.r_events;
    match !target with
    | None -> Error (Printf.sprintf "recording has only %d decision(s)" !count)
    | Some (t, level, lit, path) ->
      Ok
        {
          n_index = n;
          n_t_us = t;
          n_level = level;
          n_lit = lit;
          n_path = path;
          n_closed_by = !closed;
          n_subtree = !subtree;
        }
  end

(* --- rendering -------------------------------------------------------------- *)

let us_to_s us = float_of_int us /. 1e6

let render analyses =
  let one a =
    let head =
      match a.a_member with
      | Some m -> [ Printf.sprintf "member %s:" m ]
      | None -> []
    in
    let indent = match a.a_member with Some _ -> "  " | None -> "" in
    let line fmt = Printf.ksprintf (fun s -> indent ^ s) fmt in
    let fin_line =
      match a.a_fin with
      | Some (status, n) ->
        let verdict = if n = a.a_accounted then "matches" else "MISMATCH vs" in
        Printf.sprintf " (%s recorded fin: %s, %d nodes)" verdict status n
      | None -> " (no fin line: run killed before the summary)"
    in
    let totals =
      line "nodes: %d decisions + %d prunes = %d accounted%s" a.a_decisions a.a_prune_events
        a.a_accounted fin_line
    in
    let shape =
      line "max depth %d; depth bands of %d level(s)" a.a_max_depth a.a_band
    in
    let band_header =
      let cols =
        List.init a.a_bands (fun i ->
            Printf.sprintf "%7s" (Printf.sprintf "<=%d" (min a.a_max_depth ((i + 1) * a.a_band))))
      in
      line "%-10s %8s %7s %8s %s" "blame" "closed" "prunes" "wasted" (String.concat " " cols)
    in
    let blame_lines =
      List.map
        (fun r ->
          let cols =
            Array.to_list (Array.map (fun c -> Printf.sprintf "%7d" c) r.b_by_band)
          in
          line "%-10s %8d %7d %8d %s" r.b_blame r.b_total r.b_prunes r.b_wasted
            (String.concat " " cols))
        a.a_blame
    in
    let movement =
      line "movement: %d incumbent(s), %d import(s), %d root-lb raise(s)"
        (List.length a.a_incumbents) (List.length a.a_imports) (List.length a.a_root_lb)
    in
    let stalls =
      match a.a_stalls with
      | [] -> []
      | l ->
        (line "longest gap stalls (no incumbent / import / root-lb movement):")
        :: List.map
             (fun s ->
               line "  %7.3fs .. %7.3fs (%7.3fs): %d decisions, %d conflicts, %d prunes, %d lb evals"
                 (us_to_s s.st_from_us) (us_to_s s.st_to_us)
                 (us_to_s (s.st_to_us - s.st_from_us))
                 s.st_decisions s.st_conflicts s.st_prunes s.st_lb_evals)
             (List.filteri (fun i _ -> i < 5) l)
    in
    head @ [ totals; shape; band_header ] @ blame_lines @ [ movement ] @ stalls
  in
  List.concat_map one analyses

let render_node_fate f =
  [
    Printf.sprintf "node %d: decision %s at level %d, t=%.3fs" f.n_index f.n_lit f.n_level
      (us_to_s f.n_t_us);
    "path from root: "
    ^ String.concat " "
        (List.map (fun (lvl, lit) -> Printf.sprintf "%s@%d" lit lvl) f.n_path);
  ]
  @ (match f.n_closed_by with
    | Some ev ->
      [
        Printf.sprintf "closed by: %s" ev;
        Printf.sprintf "subtree explored before closing: %d decision(s)" f.n_subtree;
      ]
    | None -> [ "never closed: still open when the recording ended" ])
