(* Heartbeat snapshots: periodic JSONL records of where the run is right
   now — per-member phase / bounds / node rate from the live Profile
   cells, counter deltas from a registry, and the best incumbent with
   its provenance.  The live monitor (lib/obsd) takes them; a run that
   enables heartbeats always gets at least two snapshots (one as the
   monitor starts, one as it stops), so a pair of consecutive records
   exists even for instant solves.

   File shape (one JSON value per line):

     {"schema":"bsolo-heartbeat/1","run_id":"…","started":…,"every":…}
     {"t":0.01,"seq":0,"members":[…],"deltas":{…},"best":{…}}
     …
     {"end":true,"t":…,"snapshots":…}

   Domain-safety: the writer and the collector belong to the domain
   that uses them (the monitor's).  Registry reads from there are racy
   but memory-safe: the instrument lists are immutable cons cells
   behind one mutable field, and counter values are immediate ints
   (reads never tear) — a snapshot may simply miss an instrument bound
   a moment ago. *)

type member = {
  m_name : string;
  m_phase : string;  (* innermost current phase, or "idle" *)
  m_lb : float;  (* neg_infinity when none yet *)
  m_ub : float;  (* infinity when none yet *)
  m_nodes : int;
  m_node_rate : float;  (* nodes / second since the previous snapshot *)
  m_ub_self : bool;
}

type snap = {
  s_t : float;  (* seconds on the shared Epoch *)
  s_seq : int;
  s_members : member list;
  s_deltas : (string * int) list;  (* counter increments since previous snapshot *)
  s_best : (float * string) option;  (* best ub and which member holds it *)
}

(* {1 Encoding} *)

let json_of_bound v = if Float.is_finite v then Json.Float v else Json.Null

let encode_member m =
  let gap =
    if Float.is_finite m.m_lb && Float.is_finite m.m_ub then Json.Float (m.m_ub -. m.m_lb)
    else Json.Null
  in
  Json.Obj
    [
      "name", Json.String m.m_name;
      "phase", Json.String m.m_phase;
      "lb", json_of_bound m.m_lb;
      "ub", json_of_bound m.m_ub;
      "gap", gap;
      "nodes", Json.Int m.m_nodes;
      "node_rate", Json.Float m.m_node_rate;
      "ub_self", Json.Bool m.m_ub_self;
    ]

let encode s =
  Json.Obj
    ([
       "t", Json.Float s.s_t;
       "seq", Json.Int s.s_seq;
       "members", Json.List (List.map encode_member s.s_members);
       "deltas", Json.Obj (List.map (fun (k, v) -> k, Json.Int v) s.s_deltas);
     ]
    @
    match s.s_best with
    | None -> []
    | Some (cost, from) ->
      [ "best", Json.Obj [ "cost", Json.Float cost; "from", Json.String from ] ])

let bound_of_json ~default j =
  match j with Some v -> Option.value ~default (Json.to_float v) | None -> default

let decode_member j =
  match Json.member "name" j with
  | Some (Json.String m_name) ->
    Some
      {
        m_name;
        m_phase =
          (match Json.member "phase" j with Some (Json.String p) -> p | _ -> "idle");
        m_lb = bound_of_json ~default:neg_infinity (Json.member "lb" j);
        m_ub = bound_of_json ~default:infinity (Json.member "ub" j);
        m_nodes =
          (match Option.bind (Json.member "nodes" j) Json.to_int with
          | Some n -> n
          | None -> 0);
        m_node_rate =
          (match Option.bind (Json.member "node_rate" j) Json.to_float with
          | Some r -> r
          | None -> 0.);
        m_ub_self =
          (match Json.member "ub_self" j with Some (Json.Bool b) -> b | _ -> false);
      }
  | _ -> None

let decode j =
  match Option.bind (Json.member "t" j) Json.to_float, Option.bind (Json.member "seq" j) Json.to_int with
  | Some s_t, Some s_seq ->
    let s_members =
      match Json.member "members" j with
      | Some (Json.List ms) -> List.filter_map decode_member ms
      | _ -> []
    in
    let s_deltas =
      match Json.member "deltas" j with
      | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun n -> k, n) (Json.to_int v)) kvs
      | _ -> []
    in
    let s_best =
      match Json.member "best" j with
      | Some b -> (
        match Option.bind (Json.member "cost" b) Json.to_float, Json.member "from" b with
        | Some c, Some (Json.String f) -> Some (c, f)
        | _ -> None)
      | None -> None
    in
    Some { s_t; s_seq; s_members; s_deltas; s_best }
  | _ -> None

(* {1 Writer} *)

type t = {
  oc : out_channel;
  mutable written : int;
  mutable closed : bool;
}

let write_line t json =
  output_string t.oc (Json.to_string json);
  output_char t.oc '\n';
  (* Heartbeats exist to be tailed live: flush every record. *)
  Stdlib.flush t.oc

let open_file path ~run_id ~started ~every =
  let t = { oc = open_out path; written = 0; closed = false } in
  write_line t
    (Json.Obj
       [
         "schema", Json.String "bsolo-heartbeat/1";
         "run_id", Json.String run_id;
         "started", Json.Float started;
         "every", Json.Float every;
       ]);
  t

let write t snap =
  if not t.closed then begin
    write_line t (encode snap);
    t.written <- t.written + 1
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    write_line t
      (Json.Obj
         [
           "end", Json.Bool true;
           "t", Json.Float (Epoch.now ());
           "snapshots", Json.Int t.written;
         ]);
    close_out t.oc
  end

(* {1 Collector} *)

(* Build one snapshot from the live cells and (optionally) a registry.
   [prev] carries per-member node counts and counter values from the
   previous snapshot for rates and deltas. *)

type collector = {
  registry : Registry.t option;
  mutable primed : bool;
      (* a collector has no previous observation until its first
         advancing take: rates on the first snapshot are 0, not
         nodes-so-far divided by a near-zero interval *)
  mutable prev_t : float;
  mutable prev_nodes : (string * int) list;
  mutable prev_counters : (string * int) list;
}

let collector ?registry () =
  { registry; primed = false; prev_t = Epoch.now (); prev_nodes = []; prev_counters = [] }

let build ~advance c =
  let now = Epoch.now () in
  let dt = now -. c.prev_t in
  let members =
    List.map
      (fun { Profile.cell; _ } ->
        let name = Profile.Cell.name cell in
        let nodes = Profile.Cell.nodes cell in
        let rate =
          (* 1 ms floor: a forced snapshot microseconds after a periodic
             tick must not turn a handful of nodes into a huge rate. *)
          if (not c.primed) || dt <= 1e-3 then 0.
          else
            let prev = Option.value ~default:0 (List.assoc_opt name c.prev_nodes) in
            float_of_int (nodes - prev) /. dt
        in
        {
          m_name = name;
          m_phase =
            (match Profile.Cell.leaf cell with
            | Some p -> Phase.name p
            | None -> "idle");
          m_lb = Profile.Cell.lb cell;
          m_ub = Profile.Cell.ub cell;
          m_nodes = nodes;
          m_node_rate = rate;
          m_ub_self = Profile.Cell.ub_self cell;
        })
      (Profile.live ())
  in
  let counters =
    match c.registry with None -> [] | Some r -> Registry.counters r
  in
  let deltas =
    List.filter_map
      (fun (k, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt k c.prev_counters) in
        if d <> 0 then Some (k, d) else None)
      counters
  in
  let best =
    List.fold_left
      (fun acc m ->
        if Float.is_finite m.m_ub then
          match acc with
          | Some (c, _) when c <= m.m_ub -> acc
          | _ -> Some (m.m_ub, m.m_name)
        else acc)
      None members
  in
  if advance then begin
    c.primed <- true;
    c.prev_t <- now;
    c.prev_nodes <- List.map (fun m -> m.m_name, m.m_nodes) members;
    c.prev_counters <- counters
  end;
  { s_t = now; s_seq = 0; s_members = members; s_deltas = deltas; s_best = best }

let take c = build ~advance:true c

(* A forced (out-of-band) snapshot: same view, but the collector's
   previous-tick state is left untouched, so the next periodic tick's
   counter deltas and node rates still cover one full interval instead
   of being truncated at the forced snapshot. *)
let peek c = build ~advance:false c
