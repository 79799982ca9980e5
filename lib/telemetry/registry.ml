(* Declare-once registry of counters, gauges and histograms.  Lookups by
   name happen at instrument-binding time (once per solve or per call into
   a subsystem), never per event: callers hold on to the returned handle
   and mutate it directly. *)

type t = {
  mutable counters : Counter.t list;  (* newest first; snapshots reverse *)
  mutable gauges : Gauge.t list;
  mutable histograms : Histogram.t list;
}

let create () = { counters = []; gauges = []; histograms = [] }

let counter t name =
  match List.find_opt (fun c -> String.equal (Counter.name c) name) t.counters with
  | Some c -> c
  | None ->
    let c = Counter.make name in
    t.counters <- c :: t.counters;
    c

let gauge t name =
  match List.find_opt (fun g -> String.equal (Gauge.name g) name) t.gauges with
  | Some g -> g
  | None ->
    let g = Gauge.make name in
    t.gauges <- g :: t.gauges;
    g

let histogram t name =
  match List.find_opt (fun h -> String.equal (Histogram.name h) name) t.histograms with
  | Some h -> h
  | None ->
    let h = Histogram.make name in
    t.histograms <- h :: t.histograms;
    h

let find_counter t name =
  Option.map Counter.get
    (List.find_opt (fun c -> String.equal (Counter.name c) name) t.counters)

let find_gauge t name =
  Option.map Gauge.get (List.find_opt (fun g -> String.equal (Gauge.name g) name) t.gauges)

let by_name name_of a b = compare (name_of a) (name_of b)
let counters t = List.map (fun c -> Counter.name c, Counter.get c) (List.sort (by_name Counter.name) t.counters)
let gauges t = List.map (fun g -> Gauge.name g, Gauge.get g) (List.sort (by_name Gauge.name) t.gauges)
let histograms t = List.sort (by_name Histogram.name) t.histograms
