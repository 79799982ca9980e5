(* One pass of a workload: solve its instances back to back in this
   process (a closed loop with one client) and time every layer from the
   outside, through public functions, the run's counters and its phase
   timer.  perf.exe runs each pass in a fresh child process. *)

let limit_s = 10.

type span = {
  name : string;  (** pbo.parse, bsolo.setup, bsolo.search, proof.check or bench.verify *)
  instance : int;  (** spans of one instance share this id *)
  start : float;
  stop : float;
}

type solved = {
  answer : (string, string) result;
      (** the checker's rendering ("OPTIMAL 50", "SAT 0"), or why there is
          no trusted answer *)
  solve_s : float;  (** parse start until [Solver.solve] returns *)
  setup_s : float;  (** parse start until the first search-loop iteration *)
  check_s : float;  (** [Proof.Check.check_file] on the run's log *)
}

type result = {
  solved : solved list;
  counters : (string * int) list;  (** summed over the instances *)
  phases : (string * float) list;  (** [time.<phase>_s], summed; traced passes only *)
  search_phases_s : float;  (** phase self time inside the bsolo.search spans *)
  spans : span list;
  peak_rss_mb : float;
  kernel_s : float;
      (** {!Calib.kernel_s} around the pass: the mean of one run just before
          the first solve and one just after the last *)
}

let now = Unix.gettimeofday

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb))
    with Sys_error _ -> None
  in
  match from_proc with
  | Some kb -> float_of_int kb /. 1024.
  | None -> float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let phase_seconds timer =
  List.map (fun p -> (p, Telemetry.Timer.self_seconds timer p)) Telemetry.Phase.all

let add_assoc add l1 l2 =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> (k, add v0 v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    l1 l2
  |> List.sort compare

(* The trusted rendering of an outcome, in the checker's vocabulary, or
   the reason it is not an answer. *)
let verify problem (o : Bsolo.Outcome.t) =
  match o.status, o.best with
  | (Optimal | Satisfiable), Some (m, c) ->
    if not (Pbo.Model.satisfies problem m) then Error "model violates the parsed problem"
    else if Pbo.Model.cost problem m <> c then
      Error (Printf.sprintf "reported cost %d, model costs %d" c (Pbo.Model.cost problem m))
    else if o.status = Optimal then Ok (Printf.sprintf "OPTIMAL %d" c)
    else Ok (Printf.sprintf "SAT %d" c)
  | Unknown, _ -> Error (Printf.sprintf "no answer within the %gs limit" limit_s)
  | status, _ -> Error ("unexpected status " ^ Bsolo.Outcome.status_name status)

let solve_one (w : Workload.t) ~traced ~record file =
  let tel = Telemetry.Ctx.create ~timing:traced () in
  let timer = tel.Telemetry.Ctx.timer in
  (* a fresh process starts with a compact heap; give every instance one *)
  Gc.compact ();
  let t0 = now () in
  let problem = Pbo.Opb.parse_file file in
  let t_parsed = now () in
  record "pbo.parse" t0 t_parsed;
  (* Search starts at the first poll of the import hook, which the solver
     makes once per search-loop iteration; returning [None] leaves the
     tree untouched. *)
  let first_poll = ref None and phases_at_poll = ref [] in
  let hook () =
    if !first_poll = None then begin
      first_poll := Some (now ());
      phases_at_poll := phase_seconds timer
    end;
    None
  in
  let proof_file = file ^ ".pbp" in
  let sink = if w.proof then Some (Proof.Sink.open_file proof_file) else None in
  let options =
    { (Bsolo.Options.with_lb w.lb) with
      time_limit = Some limit_s;
      telemetry = Some tel;
      external_incumbent = Some hook;
      proof = Option.map (fun s -> Proof.create s problem) sink;
    }
  in
  let outcome = Bsolo.Solver.solve ~options problem in
  let t_end = now () in
  Option.iter Proof.Sink.close sink;
  let t_search = Option.value !first_poll ~default:t_end in
  record "bsolo.setup" t_parsed t_search;
  record "bsolo.search" t_search t_end;
  let answer = verify problem outcome in
  record "bench.verify" t_end (now ());
  let check_s, answer, proof_counters =
    match options.proof with
    | None -> (0., answer, [])
    | Some logger ->
      let t = now () in
      let checked = Proof.Check.check_file problem proof_file in
      let t' = now () in
      record "proof.check" t t';
      let bytes = (Unix.stat proof_file).st_size in
      Sys.remove proof_file;
      let answer =
        match answer, checked with
        | Ok a, Ok s when s.verdict = a -> Ok a
        | Ok a, Ok s -> Error (Printf.sprintf "proof verdict %S, solver answered %S" s.verdict a)
        | Ok _, Error msg -> Error ("proof rejected: " ^ msg)
        | (Error _ as e), _ -> e
      in
      (t' -. t, answer, [ ("proof.steps", Proof.steps logger); ("proof.bytes", bytes) ])
  in
  let final_phases = phase_seconds timer in
  let at_poll = if !first_poll = None then final_phases else !phases_at_poll in
  let search_phases_s =
    List.fold_left2 (fun acc (_, s) (_, s0) -> acc +. s -. s0) 0. final_phases at_poll
  in
  let solved = { answer; solve_s = t_end -. t0; setup_s = t_search -. t0; check_s } in
  let phases =
    if traced then
      List.map (fun (p, s) -> ("time." ^ Telemetry.Phase.name p ^ "_s", s)) final_phases
    else []
  in
  (solved, Telemetry.Registry.counters tel.registry @ proof_counters, phases, search_phases_s)

let run (w : Workload.t) ~traced files =
  let before = Calib.kernel_s () in
  let spans = ref [] in
  let solved, counters, phases, search_phases_s =
    List.fold_left
      (fun (solved, counters, phases, sp) (instance, file) ->
        let record name start stop = spans := { name; instance; start; stop } :: !spans in
        let s, c, p, x = solve_one w ~traced ~record file in
        (s :: solved, add_assoc ( + ) counters c, add_assoc ( +. ) phases p, sp +. x))
      ([], [], [], 0.)
      (List.mapi (fun i f -> (i, f)) files)
  in
  {
    solved = List.rev solved;
    counters;
    phases;
    search_phases_s;
    spans = List.rev !spans;
    peak_rss_mb = peak_rss_mb ();
    kernel_s = (before +. Calib.kernel_s ()) /. 2.;
  }

(* --- child process ------------------------------------------------------------ *)

(* A pass runs in a fork+exec'd copy of this executable (a fresh OCaml
   runtime, as in bench/overhead_probe.ml) and hands its result back
   through a file; both sides are the same binary, so Marshal is safe. *)
let child_flag = "--pass-child"

let run_as_child_if_requested () =
  match Array.to_list Sys.argv with
  | _ :: flag :: name :: traced :: out :: files when flag = child_flag ->
    let w =
      match Workload.find name with Some w -> w | None -> failwith ("unknown workload " ^ name)
    in
    let r = run w ~traced:(traced = "1") files in
    Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc (r : result) []);
    exit 0
  | _ -> ()

(* Run one pass in a child and wait for it.  A child that crashes or
   outlives [deadline] (absolute time; it is killed) yields [Error]. *)
let spawn (w : Workload.t) ~traced ~out ~deadline files =
  let argv =
    Array.of_list
      ([ Sys.executable_name; child_flag; w.name; (if traced then "1" else "0"); out ] @ files)
  in
  if Sys.file_exists out then Sys.remove out;
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () > deadline ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Error "pass exceeded its deadline"
    | 0, _ ->
      Unix.sleepf 0.01;
      wait ()
    | _, Unix.WEXITED 0 ->
      Ok (In_channel.with_open_bin out (fun ic -> (Marshal.from_channel ic : result)))
    | _, (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "pass child ended with status %d" n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()
