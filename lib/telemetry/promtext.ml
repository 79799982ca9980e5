(* Prometheus text exposition over a Registry.

   Renders every counter, gauge and histogram in the version-0.0.4 text
   format, so a node_exporter textfile collector, a file scraper or the
   embedded observability server ([Obsd], `GET /metrics`) can ingest
   solver metrics.  Instrument names are sanitized to the exposition
   grammar ([a-zA-Z_][a-zA-Z0-9_]*, dots become underscores, a leading
   digit gains an underscore) and namespaced, e.g. [search.nodes]
   becomes [bsolo_search_nodes].  Every metric carries `# HELP` and
   `# TYPE` lines and label values are escaped, so the output is
   lint-clean exposition — {!lint} checks exactly that and is run over
   both the textfile and the HTTP paths in CI.

   Histogram buckets are power-of-two in the registry; they export as
   the standard cumulative [le] series (inclusive upper bounds match the
   registry's bucketing), with [_sum] reconstructed from the tracked
   mean. *)

let name_char_ok first c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | '0' .. '9' -> not first
  | _ -> false

let sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else if name_char_ok true mapped.[0] then mapped
  else "_" ^ mapped

let metric_name ~namespace name = namespace ^ "_" ^ sanitize name

(* Prometheus floats: avoid OCaml's "inf"/"nan" spellings. *)
let float_str v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

(* HELP text and label values share the backslash/newline escapes; label
   values additionally escape the double quote. *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_head b name kind raw =
  Buffer.add_string b
    (Printf.sprintf "# HELP %s solver %s %s\n" name kind (escape_help raw));
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)

let render_one b ~namespace ~prefix registry =
  let qualified raw = metric_name ~namespace (prefix ^ raw) in
  List.iter
    (fun (name, v) ->
      let n = qualified name in
      add_head b n "counter" (prefix ^ name);
      Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
    (Registry.counters registry);
  List.iter
    (fun (name, v) ->
      let n = qualified name in
      add_head b n "gauge" (prefix ^ name);
      Buffer.add_string b (Printf.sprintf "%s %s\n" n (float_str v)))
    (Registry.gauges registry);
  List.iter
    (fun h ->
      let raw = Histogram.name h in
      let n = qualified raw in
      let total = Histogram.total h in
      add_head b n "histogram" (prefix ^ raw);
      let cum = ref 0 in
      List.iter
        (fun (_, hi, count) ->
          cum := !cum + count;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
               (escape_label_value (string_of_int hi))
               !cum))
        (Histogram.snapshot h);
      Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n total);
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" n
           (float_str (Histogram.mean h *. float_of_int total)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n total))
    (Registry.histograms registry)

let render_sources ?(namespace = "bsolo") sources =
  let b = Buffer.create 1024 in
  List.iter (fun (prefix, registry) -> render_one b ~namespace ~prefix registry) sources;
  Buffer.contents b

let render ?namespace registry = render_sources ?namespace [ "", registry ]

let write_file path text =
  (* Write-then-rename so scrapers never see a half-written file. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc text;
  close_out oc;
  Sys.rename tmp path

(* --- exposition lint -------------------------------------------------------- *)

(* In-repo lint for the exposition format, shared by the textfile and
   `GET /metrics` paths (the smoke suite runs it over both).  Checks the
   line grammar, metric/label name validity, escape sequences, TYPE
   placement (at most one per metric, before its samples) and histogram
   structure (cumulative non-decreasing [le] buckets ending in a +Inf
   bucket that equals [_count]). *)

let valid_name s =
  s <> ""
  && name_char_ok true s.[0]
  && String.for_all (fun c -> name_char_ok false c) s

let valid_float s =
  match s with
  | "+Inf" | "-Inf" | "Inf" | "NaN" -> true
  | _ -> ( match float_of_string_opt s with Some _ -> true | None -> false)

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* A sample line: name[{labels}] value [timestamp].  Returns
   (name, labels, value) or an error string. *)
let parse_sample line =
  let name_end =
    let rec go i =
      if i >= String.length line then i
      else if name_char_ok (i = 0) line.[i] then go (i + 1)
      else i
    in
    go 0
  in
  if name_end = 0 then Error "sample does not start with a metric name"
  else begin
    let name = String.sub line 0 name_end in
    let rest = String.sub line name_end (String.length line - name_end) in
    let labels, rest =
      if rest <> "" && rest.[0] = '{' then begin
        (* scan for the closing brace outside quotes, honoring escapes *)
        let n = String.length rest in
        let rec go i in_quotes acc_start acc =
          if i >= n then Error "unterminated label set"
          else
            match rest.[i] with
            | '\\' when in_quotes ->
              if i + 1 < n && (rest.[i + 1] = '\\' || rest.[i + 1] = '"' || rest.[i + 1] = 'n')
              then go (i + 2) in_quotes acc_start acc
              else Error "invalid escape in label value"
            | '"' -> go (i + 1) (not in_quotes) acc_start acc
            | '}' when not in_quotes ->
              Ok (String.sub rest acc_start (i - acc_start) :: acc, i + 1)
            | _ -> go (i + 1) in_quotes acc_start acc
        in
        match go 1 false 1 [] with
        | Error e -> Error e, rest
        | Ok (parts, stop) ->
          let body = String.concat "" (List.rev parts) in
          Ok body, String.sub rest stop (String.length rest - stop)
      end
      else Ok "", rest
    in
    match labels with
    | Error e -> Error e
    | Ok body -> (
      (* label pairs: k="v"[,k="v"]* — validated structurally *)
      let label_ok =
        body = ""
        || List.for_all
             (fun pair ->
               let pair = String.trim pair in
               match String.index_opt pair '=' with
               | None -> false
               | Some eq ->
                 let k = String.sub pair 0 eq in
                 let v = String.sub pair (eq + 1) (String.length pair - eq - 1) in
                 valid_name k
                 && String.length v >= 2
                 && v.[0] = '"'
                 && v.[String.length v - 1] = '"')
             (String.split_on_char ',' body)
      in
      if not label_ok then Error ("malformed label set {" ^ body ^ "}")
      else
        match split_ws rest with
        | [ value ] when valid_float value -> Ok (name, body, value)
        | [ value; ts ] when valid_float value && int_of_string_opt ts <> None ->
          Ok (name, body, value)
        | [] -> Error "sample has no value"
        | value :: _ -> Error (Printf.sprintf "invalid sample value %S" value))
  end

(* The label body for a _bucket line; returns the le value if present. *)
let le_of_labels body =
  List.find_map
    (fun pair ->
      let pair = String.trim pair in
      match String.index_opt pair '=' with
      | Some eq when String.sub pair 0 eq = "le" ->
        let v = String.sub pair (eq + 1) (String.length pair - eq - 1) in
        if String.length v >= 2 then Some (String.sub v 1 (String.length v - 2)) else None
      | _ -> None)
    (String.split_on_char ',' body)

type metric_state = {
  mutable kind : string option;
  mutable help_seen : bool;
  mutable samples : int;
  (* histogram bookkeeping *)
  mutable last_le : float;
  mutable last_cum : float;
  mutable inf_bucket : float option;
  mutable count : float option;
}

let lint text =
  let errors = ref [] in
  let err lineno fmt =
    Printf.ksprintf (fun s -> errors := Printf.sprintf "line %d: %s" lineno s :: !errors) fmt
  in
  let metrics : (string, metric_state) Hashtbl.t = Hashtbl.create 32 in
  let state name =
    match Hashtbl.find_opt metrics name with
    | Some s -> s
    | None ->
      let s =
        {
          kind = None;
          help_seen = false;
          samples = 0;
          last_le = neg_infinity;
          last_cum = neg_infinity;
          inf_bucket = None;
          count = None;
        }
      in
      Hashtbl.add metrics name s;
      s
  in
  (* Resolve a sample name to its declaring metric: exact, or the
     histogram the _bucket/_sum/_count series belongs to. *)
  let owner name =
    let strip suffix =
      let n = String.length name and m = String.length suffix in
      if n > m && String.sub name (n - m) m = suffix then
        let base = String.sub name 0 (n - m) in
        match Hashtbl.find_opt metrics base with
        | Some s when s.kind = Some "histogram" -> Some (base, s, suffix)
        | _ -> None
      else None
    in
    match Hashtbl.find_opt metrics name with
    | Some s when s.kind <> None -> Some (name, s, "")
    | _ -> (
      match strip "_bucket" with
      | Some r -> Some r
      | None -> (
        match strip "_sum" with Some r -> Some r | None -> (
          match strip "_count" with Some r -> Some r | None -> None)))
  in
  let samples = ref 0 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if line = "" then ()
      else if line.[0] = '#' then begin
        match split_ws line with
        | "#" :: "HELP" :: name :: _rest ->
          if not (valid_name name) then err lineno "invalid metric name %S in HELP" name
          else begin
            let s = state name in
            if s.help_seen then err lineno "duplicate HELP for %s" name;
            s.help_seen <- true
          end
        | "#" :: "TYPE" :: name :: kind :: [] ->
          if not (valid_name name) then err lineno "invalid metric name %S in TYPE" name
          else if
            not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
          then err lineno "invalid TYPE %S for %s" kind name
          else begin
            let s = state name in
            if s.kind <> None then err lineno "duplicate TYPE for %s" name;
            if s.samples > 0 then err lineno "TYPE for %s appears after its samples" name;
            s.kind <- Some kind
          end
        | "#" :: "TYPE" :: name :: _ -> err lineno "malformed TYPE line for %s" name
        | _ -> () (* plain comment *)
      end
      else begin
        match parse_sample line with
        | Error e -> err lineno "%s" e
        | Ok (name, labels, value) -> (
          if not (valid_name name) then err lineno "invalid metric name %S" name;
          incr samples;
          match owner name with
          | None ->
            (* untyped series are legal exposition; count it so a later
               TYPE for this exact name is flagged as misplaced *)
            let s = state name in
            s.samples <- s.samples + 1
          | Some (base, s, suffix) -> (
            s.samples <- s.samples + 1;
            let v = match value with
              | "+Inf" | "Inf" -> infinity
              | "-Inf" -> neg_infinity
              | "NaN" -> nan
              | v -> float_of_string v
            in
            match suffix with
            | "_bucket" -> (
              match le_of_labels labels with
              | None -> err lineno "%s_bucket sample without an le label" base
              | Some le ->
                let lev =
                  match le with
                  | "+Inf" | "Inf" -> infinity
                  | le -> ( match float_of_string_opt le with Some f -> f | None -> nan)
                in
                if Float.is_nan lev then err lineno "%s_bucket has unparseable le=%S" base le
                else begin
                  if lev <= s.last_le then
                    err lineno "%s_bucket le values not increasing (%s)" base le;
                  if v < s.last_cum then
                    err lineno "%s_bucket counts not cumulative at le=%s" base le;
                  s.last_le <- lev;
                  s.last_cum <- v;
                  if lev = infinity then s.inf_bucket <- Some v
                end)
            | "_count" -> s.count <- Some v
            | _ -> ()))
      end)
    lines;
  (* Cross-line histogram invariants. *)
  Hashtbl.iter
    (fun name s ->
      if s.kind = Some "histogram" then begin
        (match s.inf_bucket with
        | None -> errors := Printf.sprintf "histogram %s has no +Inf bucket" name :: !errors
        | Some inf -> (
          match s.count with
          | Some c when c <> inf ->
            errors :=
              Printf.sprintf "histogram %s: +Inf bucket %g != _count %g" name inf c :: !errors
          | _ -> ()));
        if s.count = None then
          errors := Printf.sprintf "histogram %s has no _count series" name :: !errors
      end)
    metrics;
  match !errors with [] -> Ok !samples | l -> Error (List.rev l)

let lint_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  lint text
