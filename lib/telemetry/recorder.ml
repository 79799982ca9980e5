(* Search-tree flight recorder (schema "bsolo-trace/2").

   File layout: JSON lines.  The first line is the run header,
   {"t":..,"ev":"header","schema":"bsolo-trace/2",<header fields>}, and
   every later line is one event, {"t":..,"ev":<name>,<fields>}.  "t" is
   the event's time in seconds on the shared Epoch, printed to the
   microsecond; times are absolute (not deltas), so a ring buffer can
   drop any prefix without corrupting the clock of what remains.

   The reader skips unknown "ev" names and unknown fields, so the format
   can grow fields and whole events without breaking old readers. *)

type header = {
  h_run_id : string;
  h_engine : string;
  h_lb_method : string;
  h_started : float;
  h_nvars : int;
  h_nconstraints : int;
  h_flags : int;
  h_lgr_iters : int;
}

type event =
  | Section of string
  | Decision of { level : int; var : int; value : bool }
  | Backjump of { from_level : int; to_level : int }
  | Lb_eval of {
      proc : string;
      value : int;
      path : int;
      upper : int;
      elapsed_us : int;
      pruned : bool;
    }
  | Prune of {
      blame : string;
      lb : int;
      path : int;
      upper : int;
      from_level : int;
      to_level : int;
    }
  | Learned of { size : int; level : int }
  | Incumbent of { cost : int }
  | Import of { cost : int; member : string }
  | Restart
  | Gap of { dropped : int }
  | Fin of { status : string; nodes : int; decisions : int; conflicts : int }

let schema = "bsolo-trace/2"

(* --- rendering -------------------------------------------------------------- *)

let event_name = function
  | Section _ -> "section"
  | Decision _ -> "decision"
  | Backjump _ -> "backjump"
  | Lb_eval _ -> "lb_eval"
  | Prune _ -> "prune"
  | Learned _ -> "learned"
  | Incumbent _ -> "incumbent"
  | Import _ -> "import"
  | Restart -> "restart"
  | Gap _ -> "gap"
  | Fin _ -> "fin"

(* The one JSON rendering of an event's payload: the file's lines and
   every textual report use it, and the reader decodes it back. *)
let fields =
  let i n = Json.Int n and s x = Json.String x and b x = Json.Bool x in
  function
  | Section m -> [ "name", s m ]
  | Decision { level; var; value } -> [ "level", i level; "var", i var; "value", b value ]
  | Backjump { from_level; to_level } -> [ "from_level", i from_level; "to_level", i to_level ]
  | Lb_eval { proc; value; path; upper; elapsed_us; pruned } ->
    [
      "proc", s proc;
      "value", i value;
      "path", i path;
      "upper", i upper;
      "elapsed_us", i elapsed_us;
      "pruned", b pruned;
    ]
  | Prune { blame; lb; path; upper; from_level; to_level } ->
    [
      "blame", s blame;
      "lb", i lb;
      "path", i path;
      "upper", i upper;
      "from_level", i from_level;
      "to_level", i to_level;
    ]
  | Learned { size; level } -> [ "size", i size; "level", i level ]
  | Incumbent { cost } -> [ "cost", i cost ]
  | Import { cost; member } -> [ "cost", i cost; "from", s member ]
  | Restart -> []
  | Gap { dropped } -> [ "dropped", i dropped ]
  | Fin { status; nodes; decisions; conflicts } ->
    [ "status", s status; "nodes", i nodes; "decisions", i decisions; "conflicts", i conflicts ]

let to_json ev = Json.Obj (("ev", Json.String (event_name ev)) :: fields ev)

let header_fields h =
  [
    "schema", Json.String schema;
    "run_id", Json.String h.h_run_id;
    "engine", Json.String h.h_engine;
    "lb_method", Json.String h.h_lb_method;
    "started", Json.Float h.h_started;
    "nvars", Json.Int h.h_nvars;
    "nconstraints", Json.Int h.h_nconstraints;
    "flags", Json.Int h.h_flags;
    "lgr_iters", Json.Int h.h_lgr_iters;
  ]

let now_us () = int_of_float (Epoch.now () *. 1e6)

(* One file line: {"t":..,"ev":name,<fields>} and its newline. *)
let line ~t_us name fields =
  let buf = Buffer.create 96 in
  Printf.bprintf buf "{\"t\":%.6f,\"ev\":" (float_of_int t_us /. 1e6);
  Json.escape_to buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      Json.escape_to buf k;
      Buffer.add_char buf ':';
      Json.to_buffer buf v)
    fields;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let event_line ~t_us ev = line ~t_us (event_name ev) (fields ev)
let header_line h = line ~t_us:(now_us ()) "header" (header_fields h)

(* --- writer ----------------------------------------------------------------- *)

type ring = {
  oc : out_channel;
  hdr : string;  (* the header line, stamped at open *)
  slots : string array;  (* "" = empty slot; a real line is never empty *)
  mutable next : int;  (* write index *)
}

type mode =
  | Disabled
  | Direct of out_channel
  | Ring of ring
  | Observer of (int -> event -> unit)
  | Memory of (int * event) list ref

type t = {
  mode : mode;
  on : bool;  (* mode <> Disabled: the emitters' one branch *)
  mutable nevents : int;
  mutable dropped : int;
  mutable closed : bool;
  mutex : Mutex.t;
}

let make mode =
  {
    mode;
    on = (match mode with Disabled -> false | _ -> true);
    nevents = 0;
    dropped = 0;
    closed = false;
    mutex = Mutex.create ();
  }

let disabled () = make Disabled
let enabled t = t.on

let open_file ?(ring = 0) path hdr =
  let oc = open_out_bin path in
  let hdr = header_line hdr in
  if ring > 0 then make (Ring { oc; hdr; slots = Array.make ring ""; next = 0 })
  else begin
    output_string oc hdr;
    flush oc;
    make (Direct oc)
  end

let observer f = make (Observer f)
let memory () = make (Memory (ref []))

let collected t =
  match t.mode with Memory l -> List.rev !l | _ -> []

(* --- emitting --------------------------------------------------------------- *)

let emit t ev =
  if t.on then begin
    let t_us = now_us () in
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        if not t.closed then begin
          t.nevents <- t.nevents + 1;
          match t.mode with
          | Disabled -> ()
          | Direct oc ->
            output_string oc (event_line ~t_us ev);
            (* a periodic flush keeps a killed run's file readable, minus
               at most a torn last line *)
            if t.nevents land 63 = 0 then flush oc
          | Ring r ->
            if r.slots.(r.next) <> "" then t.dropped <- t.dropped + 1;
            r.slots.(r.next) <- event_line ~t_us ev;
            r.next <- (r.next + 1) mod Array.length r.slots
          | Observer f -> f t_us ev
          | Memory l -> l := (t_us, ev) :: !l
        end)
  end

let decision t ~level ~var ~value =
  if t.on then emit t (Decision { level; var; value })

let backjump t ~from_level ~to_level =
  if t.on then emit t (Backjump { from_level; to_level })

let lb_eval t ~proc ~value ~path ~upper ~elapsed_us ~pruned =
  if t.on then emit t (Lb_eval { proc; value; path; upper; elapsed_us; pruned })

let prune t ~blame ~lb ~path ~upper ~from_level ~to_level =
  if t.on then emit t (Prune { blame; lb; path; upper; from_level; to_level })

let learned t ~size ~level = if t.on then emit t (Learned { size; level })
let incumbent t ~cost = if t.on then emit t (Incumbent { cost })
let import t ~cost ~member = if t.on then emit t (Import { cost; member })
let restart t = if t.on then emit t Restart

let fin t ~status ~nodes ~decisions ~conflicts =
  if t.on then emit t (Fin { status; nodes; decisions; conflicts })

let events_written t = t.nevents
let ring_dropped t = t.dropped

(* Ring payout: header, the gap line when events were lost, then the
   retained lines oldest-first. *)
let write_ring t r =
  output_string r.oc r.hdr;
  if t.dropped > 0 then output_string r.oc (event_line ~t_us:0 (Gap { dropped = t.dropped }));
  let n = Array.length r.slots in
  for i = 0 to n - 1 do
    let line = r.slots.((r.next + i) mod n) in
    if line <> "" then output_string r.oc line
  done;
  flush r.oc

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        match t.mode with
        | Direct oc -> close_out_noerr oc
        | Ring r ->
          write_ring t r;
          close_out_noerr r.oc
        | Disabled | Observer _ | Memory _ -> ()
      end)

(* --- reader ----------------------------------------------------------------- *)

type recording = {
  r_header : header;
  r_events : (int * event) list;
  r_truncated : bool;
}

(* A line that does not parse, or a known event with a missing or
   ill-typed field. *)
exception Corrupt of string

let parse line = match Json.of_string line with Ok j -> j | Error msg -> raise (Corrupt msg)

let get conv what j k =
  match Option.bind (Json.member k j) conv with
  | Some v -> v
  | None -> raise (Corrupt (Printf.sprintf "no %s field %S" what k))

let int = get Json.to_int "integer"
let str = get Json.to_string_opt "string"
let bool = get (function Json.Bool b -> Some b | _ -> None) "boolean"

let header_of_json j =
  if Json.member "ev" j <> Some (Json.String "header")
     || Json.member "schema" j <> Some (Json.String schema)
  then raise (Corrupt "not a header")
  else
    {
      h_run_id = str j "run_id";
      h_engine = str j "engine";
      h_lb_method = str j "lb_method";
      h_started = get Json.to_float "number" j "started";
      h_nvars = int j "nvars";
      h_nconstraints = int j "nconstraints";
      h_flags = int j "flags";
      h_lgr_iters = int j "lgr_iters";
    }

(* [None] for an event name this reader does not know. *)
let event_of_json j =
  let i = int j and s = str j and b = bool j in
  match s "ev" with
  | "section" -> Some (Section (s "name"))
  | "decision" -> Some (Decision { level = i "level"; var = i "var"; value = b "value" })
  | "backjump" -> Some (Backjump { from_level = i "from_level"; to_level = i "to_level" })
  | "lb_eval" ->
    Some
      (Lb_eval
         {
           proc = s "proc";
           value = i "value";
           path = i "path";
           upper = i "upper";
           elapsed_us = i "elapsed_us";
           pruned = b "pruned";
         })
  | "prune" ->
    Some
      (Prune
         {
           blame = s "blame";
           lb = i "lb";
           path = i "path";
           upper = i "upper";
           from_level = i "from_level";
           to_level = i "to_level";
         })
  | "learned" -> Some (Learned { size = i "size"; level = i "level" })
  | "incumbent" -> Some (Incumbent { cost = i "cost" })
  | "import" -> Some (Import { cost = i "cost"; member = s "from" })
  | "restart" -> Some Restart
  | "gap" -> Some (Gap { dropped = i "dropped" })
  | "fin" ->
    Some
      (Fin
         {
           status = s "status";
           nodes = i "nodes";
           decisions = i "decisions";
           conflicts = i "conflicts";
         })
  | _ -> None

let timed_event line =
  let j = parse line in
  Option.map
    (fun ev -> (int_of_float (Float.round (get Json.to_float "number" j "t" *. 1e6)), ev))
    (event_of_json j)

let read_lines path ic =
  let next () = In_channel.input_line ic in
  match Option.map (fun l -> header_of_json (parse l)) (next ()) with
  | None | (exception Corrupt _) ->
    Error (Printf.sprintf "%s: not a %s recording (no header line first)" path schema)
  | Some h ->
    (* A run killed mid-write leaves at most its last line torn. *)
    let rec go n acc = function
      | None -> Ok { r_header = h; r_events = List.rev acc; r_truncated = false }
      | Some l -> (
        let following = next () in
        match timed_event l with
        | Some e -> go (n + 1) (e :: acc) following
        | None -> go (n + 1) acc following
        | exception Corrupt _ when following = None ->
          Ok { r_header = h; r_events = List.rev acc; r_truncated = true }
        | exception Corrupt msg -> Error (Printf.sprintf "%s: line %d: %s" path n msg))
    in
    go 2 [] (next ())

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    try read_lines path ic with Sys_error msg -> Error msg)

(* --- stitching -------------------------------------------------------------- *)

let stitch base hdr parts =
  match open_out_bin base with
  | exception Sys_error msg -> Error msg
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (header_line hdr);
        List.iter
          (fun (member, path) ->
            match read_file path with
            | Error _ -> ()
            | Ok r ->
              let t0 = match r.r_events with (t, _) :: _ -> t | [] -> 0 in
              output_string oc (event_line ~t_us:t0 (Section member));
              List.iter
                (fun (t_us, ev) ->
                  match ev with
                  | Section _ -> ()
                  | ev -> output_string oc (event_line ~t_us ev))
                r.r_events)
          parts;
        Ok ())
