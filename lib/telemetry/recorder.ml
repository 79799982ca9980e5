(* Search-tree flight recorder (schema "bsolo-rec/1").

   File layout: the magic line "bsolo-rec/1\n", then frames.  A frame is
   [varint payload_len][payload]; the payload is [tag:u8][t_us:varint]
   [fields...].  Unsigned fields are LEB128 varints, signed fields are
   zigzag varints, strings are length-prefixed, the header's start time
   is a little-endian IEEE double.  Timestamps are absolute microseconds
   on the shared Epoch (not deltas), so a ring buffer can drop any
   prefix without corrupting the clock of what remains.

   Unknown tags are skipped by length, so the format can grow fields at
   the tail of existing frames or whole new frames without breaking old
   readers. *)

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

let schema = "bsolo-rec/1"
let magic = schema ^ "\n"

(* --- codec ------------------------------------------------------------------ *)

let add_varint buf n =
  let rec go n =
    if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* Zigzag so small negative values stay small; OCaml's native int width. *)
let add_zig buf n = add_varint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_f64 buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char buf (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

exception Torn  (* the buffer ended mid-value: truncated tail *)

let get_varint s pos limit =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= limit then raise Torn;
    let b = Char.code s.[!pos] in
    incr pos;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !n

let get_zig s pos limit =
  let n = get_varint s pos limit in
  (n lsr 1) lxor - (n land 1)

let get_bool s pos limit =
  if !pos >= limit then raise Torn;
  let b = s.[!pos] <> '\000' in
  incr pos;
  b

let get_string s pos limit =
  let len = get_varint s pos limit in
  if !pos + len > limit then raise Torn;
  let r = String.sub s !pos len in
  pos := !pos + len;
  r

let get_f64 s pos limit =
  if !pos + 8 > limit then raise Torn;
  let bits = ref 0L in
  for i = 7 downto 0 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code s.[!pos + i]))
  done;
  pos := !pos + 8;
  Int64.float_of_bits !bits

(* --- frame encoding --------------------------------------------------------- *)

let tag_header = 0
let tag_section = 1
let tag_decision = 2
let tag_backjump = 3
let tag_lb_eval = 4
let tag_prune = 5
let tag_learned = 6
let tag_incumbent = 7
let tag_import = 8
let tag_restart = 9
let tag_gap = 10
let tag_fin = 11

let encode_header buf h =
  Buffer.add_char buf (Char.chr tag_header);
  add_varint buf 0;
  add_string buf h.h_run_id;
  add_string buf h.h_engine;
  add_string buf h.h_lb_method;
  add_f64 buf h.h_started;
  add_varint buf h.h_nvars;
  add_varint buf h.h_nconstraints;
  add_varint buf h.h_flags;
  (* lb_every: the lower bound's node interval is no longer an option;
     the slot keeps the frame layout (0 in a stitched portfolio header). *)
  add_varint buf (if h.h_engine = "portfolio" then 0 else 1);
  add_varint buf h.h_lgr_iters

let encode_event buf ~t_us ev =
  let tag t = Buffer.add_char buf (Char.chr t) in
  match ev with
  | Section m ->
    tag tag_section;
    add_varint buf t_us;
    add_string buf m
  | Decision { level; var; value } ->
    tag tag_decision;
    add_varint buf t_us;
    add_varint buf level;
    add_varint buf var;
    add_bool buf value
  | Backjump { from_level; to_level } ->
    tag tag_backjump;
    add_varint buf t_us;
    add_varint buf from_level;
    add_varint buf to_level
  | Lb_eval { proc; value; path; upper; elapsed_us; pruned } ->
    tag tag_lb_eval;
    add_varint buf t_us;
    add_string buf proc;
    add_zig buf value;
    add_zig buf path;
    add_zig buf upper;
    add_varint buf elapsed_us;
    add_bool buf pruned
  | Prune { blame; lb; path; upper; from_level; to_level } ->
    tag tag_prune;
    add_varint buf t_us;
    add_string buf blame;
    add_zig buf lb;
    add_zig buf path;
    add_zig buf upper;
    add_varint buf from_level;
    add_varint buf to_level
  | Learned { size; level } ->
    tag tag_learned;
    add_varint buf t_us;
    add_varint buf size;
    add_varint buf level
  | Incumbent { cost } ->
    tag tag_incumbent;
    add_varint buf t_us;
    add_zig buf cost
  | Import { cost; member } ->
    tag tag_import;
    add_varint buf t_us;
    add_zig buf cost;
    add_string buf member
  | Restart ->
    tag tag_restart;
    add_varint buf t_us
  | Gap { dropped } ->
    tag tag_gap;
    add_varint buf t_us;
    add_varint buf dropped
  | Fin { status; nodes; decisions; conflicts } ->
    tag tag_fin;
    add_varint buf t_us;
    add_string buf status;
    add_varint buf nodes;
    add_varint buf decisions;
    add_varint buf conflicts

(* A complete frame (length prefix included) as a string. *)
let frame_string payload_of =
  let payload = Buffer.create 32 in
  payload_of payload;
  let framed = Buffer.create (Buffer.length payload + 4) in
  add_varint framed (Buffer.length payload);
  Buffer.add_buffer framed payload;
  Buffer.contents framed

let event_frame ~t_us ev = frame_string (fun b -> encode_event b ~t_us ev)
let header_frame h = frame_string (fun b -> encode_header b h)

(* --- writer ----------------------------------------------------------------- *)

type ring = {
  oc : out_channel;
  hdr : header;
  slots : string array;  (* "" = empty slot; a real frame is >= 2 bytes *)
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
  mutable jsonl : Trace.t;  (* JSONL rendering target, see [tee] *)
  mutable member : (string * Json.t) list;  (* [] or the "member" field *)
  mutable on : bool;  (* a binary target or a live JSONL sink *)
  mutable nevents : int;
  mutable dropped : int;
  mutable closed : bool;
  mutex : Mutex.t;
}

let make mode =
  {
    mode;
    jsonl = Trace.disabled ();
    member = [];
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
  if ring > 0 then make (Ring { oc; hdr; slots = Array.make ring ""; next = 0 })
  else begin
    output_string oc magic;
    output_string oc (header_frame hdr);
    flush oc;
    make (Direct oc)
  end

let observer f = make (Observer f)
let memory () = make (Memory (ref []))

let tee t ?member sink =
  t.jsonl <- sink;
  t.member <- (match member with Some m -> [ "member", Json.String m ] | None -> []);
  t.on <- t.on || Trace.enabled sink

let collected t =
  match t.mode with Memory l -> List.rev !l | _ -> []

let now_us () = int_of_float (Epoch.now () *. 1e6)
let seconds t_us = float_of_int t_us /. 1e6

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

(* The one JSON rendering of an event's payload: the JSONL sink, the
   recording renderer [to_json] and every textual report use it. *)
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

let to_json ?member ?t_us ev =
  Json.Obj
    ((match t_us with Some t_us -> [ "t", Json.Float (seconds t_us) ] | None -> [])
    @ (("ev", Json.String (event_name ev))
      :: (match member with Some m -> [ "member", Json.String m ] | None -> [])
      @ fields ev))

let trace_schema = "bsolo-trace/2"

let trace_header sink h =
  Trace.event sink "header"
    [
      "schema", Json.String trace_schema;
      "run_id", Json.String h.h_run_id;
      "engine", Json.String h.h_engine;
      "lb_method", Json.String h.h_lb_method;
      "started", Json.Float h.h_started;
      "nvars", Json.Int h.h_nvars;
      "nconstraints", Json.Int h.h_nconstraints;
      "flags", Json.Int h.h_flags;
      "lb_every", Json.Int 1;
      "lgr_iters", Json.Int h.h_lgr_iters;
    ]

(* --- emitting --------------------------------------------------------------- *)

(* Each event is stamped once; the binary frame and the JSONL line carry
   the same [t_us], and both are written under the recorder's lock, so
   the two streams agree event for event. *)
let emit t ev =
  if t.on then begin
    let t_us = now_us () in
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        if not t.closed then begin
          t.nevents <- t.nevents + 1;
          (match t.mode with
          | Disabled -> ()
          | Direct oc ->
            output_string oc (event_frame ~t_us ev);
            if t.nevents land 63 = 0 then flush oc
          | Ring r ->
            if r.slots.(r.next) <> "" then t.dropped <- t.dropped + 1;
            r.slots.(r.next) <- event_frame ~t_us ev;
            r.next <- (r.next + 1) mod Array.length r.slots
          | Observer f -> f t_us ev
          | Memory l -> l := (t_us, ev) :: !l);
          if Trace.enabled t.jsonl then
            Trace.event ~t:(seconds t_us) t.jsonl (event_name ev) (t.member @ fields ev)
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

(* Ring payout: header, the Gap marker when events were lost, then the
   retained frames oldest-first.  Rewrites the whole (bounded) file each
   time, so calling it from both a signal handler and at_exit is safe. *)
let write_ring t r =
  seek_out r.oc 0;
  output_string r.oc magic;
  output_string r.oc (header_frame r.hdr);
  if t.dropped > 0 then output_string r.oc (event_frame ~t_us:0 (Gap { dropped = t.dropped }));
  let n = Array.length r.slots in
  for i = 0 to n - 1 do
    let frame = r.slots.((r.next + i) mod n) in
    if frame <> "" then output_string r.oc frame
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
  r_header : header option;
  r_events : (int * event) list;
  r_truncated : bool;
}

let decode_header s pos limit =
  let h_run_id = get_string s pos limit in
  let h_engine = get_string s pos limit in
  let h_lb_method = get_string s pos limit in
  let h_started = get_f64 s pos limit in
  let h_nvars = get_varint s pos limit in
  let h_nconstraints = get_varint s pos limit in
  let h_flags = get_varint s pos limit in
  ignore (get_varint s pos limit : int) (* lb_every *);
  let h_lgr_iters = get_varint s pos limit in
  { h_run_id; h_engine; h_lb_method; h_started; h_nvars; h_nconstraints; h_flags; h_lgr_iters }

let decode_event tag s pos limit =
  if tag = tag_section then Some (Section (get_string s pos limit))
  else if tag = tag_decision then begin
    let level = get_varint s pos limit in
    let var = get_varint s pos limit in
    let value = get_bool s pos limit in
    Some (Decision { level; var; value })
  end
  else if tag = tag_backjump then begin
    let from_level = get_varint s pos limit in
    let to_level = get_varint s pos limit in
    Some (Backjump { from_level; to_level })
  end
  else if tag = tag_lb_eval then begin
    let proc = get_string s pos limit in
    let value = get_zig s pos limit in
    let path = get_zig s pos limit in
    let upper = get_zig s pos limit in
    let elapsed_us = get_varint s pos limit in
    let pruned = get_bool s pos limit in
    Some (Lb_eval { proc; value; path; upper; elapsed_us; pruned })
  end
  else if tag = tag_prune then begin
    let blame = get_string s pos limit in
    let lb = get_zig s pos limit in
    let path = get_zig s pos limit in
    let upper = get_zig s pos limit in
    let from_level = get_varint s pos limit in
    let to_level = get_varint s pos limit in
    Some (Prune { blame; lb; path; upper; from_level; to_level })
  end
  else if tag = tag_learned then begin
    let size = get_varint s pos limit in
    let level = get_varint s pos limit in
    Some (Learned { size; level })
  end
  else if tag = tag_incumbent then Some (Incumbent { cost = get_zig s pos limit })
  else if tag = tag_import then begin
    let cost = get_zig s pos limit in
    let member = get_string s pos limit in
    Some (Import { cost; member })
  end
  else if tag = tag_restart then Some Restart
  else if tag = tag_gap then Some (Gap { dropped = get_varint s pos limit })
  else if tag = tag_fin then begin
    let status = get_string s pos limit in
    let nodes = get_varint s pos limit in
    let decisions = get_varint s pos limit in
    let conflicts = get_varint s pos limit in
    Some (Fin { status; nodes; decisions; conflicts })
  end
  else None (* unknown tag: skipped by the frame length *)

let read_string_content s =
  let len = String.length s in
  let mlen = String.length magic in
  if len < mlen || String.sub s 0 mlen <> magic then
    Error (Printf.sprintf "not a %s recording (bad magic)" schema)
  else begin
    let header = ref None in
    let events = ref [] in
    let truncated = ref false in
    let pos = ref mlen in
    (try
       while !pos < len do
         let flen = get_varint s pos len in
         if !pos + flen > len then raise Torn;
         let limit = !pos + flen in
         let p = ref !pos in
         pos := limit;
         (* a frame that fails to decode within its own bounds is corrupt,
            but the framing is intact: skip it and keep going *)
         (try
            if !p >= limit then raise Torn;
            let tag = Char.code s.[!p] in
            incr p;
            let t_us = get_varint s p limit in
            if tag = tag_header then header := Some (decode_header s p limit)
            else
              match decode_event tag s p limit with
              | Some ev -> events := (t_us, ev) :: !events
              | None -> ()
          with Torn -> ())
       done
     with Torn -> truncated := true);
    Ok { r_header = !header; r_events = List.rev !events; r_truncated = !truncated }
  end

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | s -> read_string_content s

(* --- stitching -------------------------------------------------------------- *)

let stitch base hdr parts =
  match open_out_bin base with
  | exception Sys_error msg -> Error msg
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        output_string oc (header_frame hdr);
        List.iter
          (fun (member, path) ->
            match read_file path with
            | Error _ -> ()
            | Ok r ->
              let t0 = match r.r_events with (t, _) :: _ -> t | [] -> 0 in
              output_string oc (event_frame ~t_us:t0 (Section member));
              List.iter
                (fun (t_us, ev) ->
                  match ev with
                  | Section _ -> ()
                  | ev -> output_string oc (event_frame ~t_us ev))
                r.r_events)
          parts;
        Ok ())
