open Pbo

type entry = {
  pname : string;
  psolve : options:Bsolo.Options.t -> Problem.t -> Bsolo.Outcome.t;
}

let bsolo_entry name lb =
  {
    pname = name;
    psolve =
      (fun ~options problem ->
        Bsolo.Solver.solve ~options:{ options with lb_method = lb } problem);
  }

let default_entries =
  [
    bsolo_entry "bsolo-lpr" Bsolo.Options.Lpr;
    bsolo_entry "bsolo-mis" Bsolo.Options.Mis;
    {
      pname = "pbs-like";
      psolve =
        (fun ~options problem ->
          Bsolo.Solver.solve
            ~options:
              {
                Bsolo.Options.pbs with
                time_limit = options.time_limit;
                telemetry = options.telemetry;
                external_incumbent = options.external_incumbent;
                should_stop = options.should_stop;
                on_incumbent = options.on_incumbent;
                proof = options.proof;
              }
            problem);
    };
    {
      pname = "milp";
      psolve = (fun ~options problem -> Milp.Branch_and_bound.solve ~options problem);
    };
  ]

type report = {
  winner : string;
  outcome : Bsolo.Outcome.t;
  runs : (string * Bsolo.Outcome.t) list;
  failures : (string * string) list;
  disagreement : string option;
}

let proved (o : Bsolo.Outcome.t) =
  match o.status with
  | Bsolo.Outcome.Optimal | Bsolo.Outcome.Satisfiable | Bsolo.Outcome.Unsatisfiable -> true
  | Bsolo.Outcome.Unknown -> false

(* Completed proofs first (an optimum or unsatisfiability closes the
   search space), then a proved-feasible result, then anytime bounds.  A
   worker that merely found a model must never outrank one that finished
   a proof. *)
let rank (o : Bsolo.Outcome.t) =
  match o.status with
  | Bsolo.Outcome.Optimal | Bsolo.Outcome.Unsatisfiable -> 0
  | Bsolo.Outcome.Satisfiable -> 1
  | Bsolo.Outcome.Unknown -> 2

(* Ranking: lower rank beats higher; within a rank, lower cost; ties keep
   the earlier entry (callers fold in entry order), so the reported
   winner is deterministic regardless of parallel finish order. *)
let better (a : Bsolo.Outcome.t) (b : Bsolo.Outcome.t) =
  rank a < rank b
  || (rank a = rank b
     &&
     match Bsolo.Outcome.best_cost a, Bsolo.Outcome.best_cost b with
     | Some ca, Some cb -> ca < cb
     | Some _, None -> true
     | None, (Some _ | None) -> false)

(* Fold worker-registry snapshots into the parent registry under
   [portfolio.<name>.<instrument>] — registries are single-domain, so the
   merge happens strictly after the worker's domain is joined. *)
let merge_worker_registry tel name (wreg : Telemetry.Registry.t) =
  let prefix = "portfolio." ^ name ^ "." in
  List.iter
    (fun (k, v) ->
      if v <> 0 then
        Telemetry.Counter.add
          (Telemetry.Registry.counter tel.Telemetry.Ctx.registry (prefix ^ k))
          v)
    (Telemetry.Registry.counters wreg);
  List.iter
    (fun (k, v) -> Telemetry.Gauge.set (Telemetry.Registry.gauge tel.registry (prefix ^ k)) v)
    (Telemetry.Registry.gauges wreg)

let pick_winner runs =
  match runs with
  | [] -> invalid_arg "Portfolio.solve: no entries"
  | (name0, o0) :: rest ->
    List.fold_left
      (fun (wn, wo) (name, o) -> if better o wo then name, o else wn, wo)
      (name0, o0) rest

let check_disagreement problem runs winner (outcome : Bsolo.Outcome.t) =
  let check acc (name, o) =
    match acc with
    | Some _ -> acc
    | None ->
      (match Bsolo.Certify.check_optimal_against problem o ~reference:outcome with
      | Ok () -> None
      | Error e -> Some (Printf.sprintf "%s vs %s: %s" name winner e))
  in
  List.fold_left check None runs

(* --- proof stitching -------------------------------------------------------- *)

let token s = String.map (fun c -> if c = ' ' || c = '\t' then '-' else c) s
let part_path base name = base ^ "." ^ token name ^ ".part"

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* A member's part joins the stitched log only when it terminates with
   its section conclusion: a crashed worker or a proof-unaware member
   (the MILP baseline) leaves an empty or truncated part, which must not
   invalidate the other members' sections.  Every [Bsolo.Solver] member,
   pbs-like included, logs its derivation. *)
let concluded_part lines =
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else Some l) None lines
  in
  match last with
  | Some l -> String.length l >= 2 && String.sub l 0 2 = "c "
  | None -> false

(* The final claim is the ranking's winner among the included
   sections, which is what the checker recomputes from them: an optimum
   or unsatisfiability some section closed on its own, else the best
   witnessed cost.  Claiming more would make checkproof reject the
   log. *)
let stitched_claim included =
  let _, (o : Bsolo.Outcome.t) = pick_winner included in
  match o.status, Bsolo.Outcome.best_cost o with
  | Bsolo.Outcome.Unsatisfiable, _ -> Proof.Unsat
  | Bsolo.Outcome.Optimal, Some c -> Proof.Optimal c
  | _, Some c -> Proof.Sat c
  | _, None -> Proof.No_claim

let stitch_proof ?run_id ~base problem names runs =
  let included = ref [] in
  let sections = ref [] in
  List.iter
    (fun name ->
      let path = part_path base name in
      if Sys.file_exists path then begin
        (match read_lines path, List.assoc_opt name runs with
        | lines, Some o when concluded_part lines ->
          sections := (name, lines) :: !sections;
          included := (name, o) :: !included
        | _, (Some _ | None) -> ());
        try Sys.remove path with Sys_error _ -> ()
      end)
    names;
  let sections = List.rev !sections and included = List.rev !included in
  let oc = open_out base in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "p %s\n" Proof.version;
      (* Run-correlation comment; the checker skips [#] lines. *)
      Option.iter (fun id -> Printf.fprintf oc "# run %s\n" id) run_id;
      Printf.fprintf oc "f %d\n" (Array.length (Problem.constraints problem));
      if sections = [] then output_string oc "c NONE\n"
      else begin
        List.iter
          (fun (name, lines) ->
            Printf.fprintf oc "m %s\n" (token name);
            List.iter (fun l -> Printf.fprintf oc "%s\n" l) lines)
          sections;
        Printf.fprintf oc "F %s\n" (Proof.conclusion_to_string (stitched_claim included))
      end)

(* --- recording stitching ---------------------------------------------------- *)

(* Flight-recorder parts mirror the proof parts: each member records into
   [<base>.<member>.part] and the parts are stitched into one recording
   with per-member [section] lines after the members finish.  Member
   parts carry the member name as their engine tag; the stitched file is
   tagged "portfolio".  (Stitched recordings serve forensics, not
   replay: the interleaving between members is not recorded.) *)
let recording_header ?run_id ~engine ~started problem =
  {
    Telemetry.Recorder.h_run_id = Option.value ~default:"" run_id;
    h_engine = engine;
    h_lb_method = "";
    h_started = started;
    h_nvars = Problem.nvars problem;
    h_nconstraints = Array.length (Problem.constraints problem);
    h_flags = 0;
    h_lgr_iters = 0;
  }

let member_recorder ?run_id ~record_file ~started problem name =
  match record_file with
  | None -> Telemetry.Recorder.disabled ()
  | Some base -> (
    try
      Telemetry.Recorder.open_file (part_path base name)
        (recording_header ?run_id ~engine:name ~started problem)
    with Sys_error _ -> Telemetry.Recorder.disabled ())

let stitch_recording ?run_id ~base ~started problem names =
  let parts =
    List.filter_map
      (fun name ->
        let p = part_path base name in
        if Sys.file_exists p then Some (name, p) else None)
      names
  in
  (match
     Telemetry.Recorder.stitch base
       (recording_header ?run_id ~engine:"portfolio" ~started problem)
       parts
   with
  | Ok () -> ()
  | Error _ -> ());
  List.iter (fun (_, p) -> try Sys.remove p with Sys_error _ -> ()) parts

(* --- the worker pool -------------------------------------------------------- *)

(* The shared-incumbent cell: best (cost, model, finder) any member has
   found, offset included.  CAS-published so a stale broadcast never
   overwrites a better one; polled by members through
   Options.external_incumbent as a plain Atomic.get.  A claim enters only
   when its model satisfies [problem] at exactly the claimed cost, so a
   bad broadcast can never hold the cell against later honest ones;
   each importer still checks a model before adopting it.  The finder
   name attributes the import event. *)
let publish problem cell cost model name =
  let rec cas () =
    let cur = Atomic.get cell in
    match cur with
    | Some (c, _, _) when c <= cost -> false
    | Some _ | None -> Atomic.compare_and_set cell cur (Some (cost, model, name)) || cas ()
  in
  Model.satisfies problem model && Model.cost problem model = cost && cas ()

type member_result = {
  windex : int;  (* entry index, the determinism anchor *)
  wname : string;
  wrun : (Bsolo.Outcome.t, string) result;  (* Error = exception barrier *)
  wregistry : Telemetry.Registry.t;
  wtimer : Telemetry.Timer.t;
}

let run_pool ?run_id ~observe tel entries ~jobs ~budget ~proof_file ~record_file problem =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let jobs = max 1 (min jobs n) in
  let start = Unix.gettimeofday () in
  let deadline = start +. budget in
  let cell : (int * Model.t * string) option Atomic.t = Atomic.make None in
  let stop = Atomic.make false in
  let broadcasts = Atomic.make 0 and cancelled = Atomic.make 0 in
  let run_one index ~slice =
    let e = entries.(index) in
    (* Each member gets its own live cell — and so its own span track —
       registered exactly for the duration of its run, so monitors see
       members come and go.  Its phase timer runs when the parent's does;
       the self times are added into the parent's after the join. *)
    let wcell = Telemetry.Profile.Cell.make ~observed:observe ~name:e.pname () in
    let wtrack = Telemetry.Profile.Cell.track wcell in
    Telemetry.Span.name_track tel.Telemetry.Ctx.spans ~track:wtrack e.pname;
    let wrec = member_recorder ?run_id ~record_file ~started:start problem e.pname in
    let wtel =
      Telemetry.Ctx.create
        ~timing:(Telemetry.Timer.enabled tel.timer)
        ~spans:tel.spans ~cell:wcell ~recorder:wrec ()
    in
    let psink =
      Option.map (fun base -> Proof.Sink.open_file (part_path base e.pname)) proof_file
    in
    let options =
      {
        Bsolo.Options.default with
        time_limit = Some slice;
        telemetry = Some wtel;
        external_incumbent = Some (fun () -> Atomic.get cell);
        should_stop = Some (fun () -> Atomic.get stop);
        on_incumbent =
          Some
            (fun m c ->
              if publish problem cell c m e.pname then Atomic.incr broadcasts);
        proof = Option.map (fun s -> Proof.create ~header:false s problem) psink;
      }
    in
    (* The member's registry is scraped live under the same
       [portfolio.<name>.] prefix the post-join merge will use, so metric
       names stay stable across the member's finish. *)
    Telemetry.Profile.register ~prefix:("portfolio." ^ e.pname ^ ".") wcell wtel.registry;
    let t0 = Unix.gettimeofday () in
    let wrun =
      match e.psolve ~options problem with
      | o -> Ok o
      | exception exn -> Error (Printexc.to_string exn)
    in
    Telemetry.Span.complete ~cat:"member" tel.spans ~track:wtrack ~name:("member:" ^ e.pname)
      ~start:t0 ~stop:(Unix.gettimeofday ());
    (* Withdrawn before the registry is merged after the join — a scrape
       between the two sees the member's counters in neither place rather
       than in both. *)
    Telemetry.Profile.unregister wcell;
    Option.iter Proof.Sink.close psink;
    Telemetry.Recorder.close wrec;
    let stopped_by_peer = Atomic.get stop in
    (match wrun with
    | Ok o when proved o -> Atomic.set stop true
    | Ok _ | Error _ -> if stopped_by_peer then Atomic.incr cancelled);
    { windex = index; wname = e.pname; wrun; wregistry = wtel.registry; wtimer = wtel.timer }
  in
  (* Round-robin assignment: worker [w] runs entries w, w+jobs, ... one
     after another.  A member's slice is its fair share of the time left
     to the deadline, (deadline - now) / members this worker has not yet
     run, so an early finisher donates its remainder to the worker's later
     members; with jobs >= n every member gets the whole budget.  Once the
     stop flag is up a worker starts no further member: the members it
     skips are not run and count as cancelled. *)
  let worker w =
    let rec go acc = function
      | [] -> List.rev acc
      | pending when Atomic.get stop ->
        ignore (Atomic.fetch_and_add cancelled (List.length pending));
        List.rev acc
      | i :: rest ->
        let left = float_of_int (1 + List.length rest) in
        let slice = Float.max 0.01 ((deadline -. Unix.gettimeofday ()) /. left) in
        go (run_one i ~slice :: acc) rest
    in
    go [] (List.filter (fun i -> i mod jobs = w) (List.init n Fun.id))
  in
  (* The calling domain is worker 0; the other jobs - 1 get a domain each. *)
  let others = List.init (jobs - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1))) in
  let own = worker 0 in
  let results =
    List.concat (own :: List.map Domain.join others)
    |> List.sort (fun a b -> compare a.windex b.windex)
  in
  let reg = tel.Telemetry.Ctx.registry in
  let runs = ref [] and failures = ref [] in
  List.iter
    (fun r ->
      (* Phase times are summed over members: with jobs > 1 they can
         exceed the run's wall time. *)
      Telemetry.Timer.add_self ~into:tel.timer r.wtimer;
      match r.wrun with
      | Ok o ->
        (* where the budget went: the member's own counters and gauges
           arrive with the merge, its wall time is this gauge *)
        Telemetry.Gauge.set (Telemetry.Registry.gauge reg ("portfolio." ^ r.wname ^ ".seconds"))
          o.elapsed;
        merge_worker_registry tel r.wname r.wregistry;
        runs := (r.wname, o) :: !runs
      | Error msg -> failures := (r.wname, msg) :: !failures)
    results;
  let runs = List.rev !runs and failures = List.rev !failures in
  let names = List.map (fun e -> e.pname) (Array.to_list entries) in
  Option.iter (fun base -> stitch_proof ?run_id ~base problem names runs) proof_file;
  Option.iter
    (fun base -> stitch_recording ?run_id ~base ~started:start problem names)
    record_file;
  Telemetry.Counter.add
    (Telemetry.Registry.counter reg "portfolio.incumbent_broadcasts")
    (Atomic.get broadcasts);
  Telemetry.Counter.add (Telemetry.Registry.counter reg "portfolio.cancelled")
    (Atomic.get cancelled);
  runs, failures

(* --- entry point ------------------------------------------------------------ *)

let solve ?telemetry ?run_id ?(observe = false) ?proof_file ?record_file
    ?(entries = default_entries) ?(jobs = 1) ~budget problem =
  let tel = match telemetry with Some t -> t | None -> Telemetry.Ctx.silent () in
  if entries = [] then invalid_arg "Portfolio.solve: no entries";
  let runs, failures =
    run_pool ?run_id ~observe tel entries ~jobs ~budget ~proof_file ~record_file problem
  in
  if runs = [] then begin
    let detail =
      String.concat "; " (List.map (fun (n, e) -> n ^ ": " ^ e) failures)
    in
    invalid_arg ("Portfolio.solve: every entry crashed (" ^ detail ^ ")")
  end;
  let winner, outcome = pick_winner runs in
  (* The caller's cell ends the run holding the answer — the members'
     cells are gone by now — written from the calling domain, its one
     writer, so the final heartbeat carries the portfolio's bounds. *)
  Option.iter
    (fun (_, c) ->
      let c = float_of_int c in
      Telemetry.Profile.Cell.update_ub ~self:false tel.cell c;
      if outcome.Bsolo.Outcome.status = Bsolo.Outcome.Optimal then
        Telemetry.Profile.Cell.update_lb tel.cell c)
    outcome.best;
  let disagreement = check_disagreement problem runs winner outcome in
  { winner; outcome; runs; failures; disagreement }
