(* Perf tier: time to proven optimum on generated instances big enough to
   time, with every layer charged separately.  See README.md.

     perf.exe [--seed S] [--workload NAME] [--out FILE]
     perf.exe drive --workload NAME --seed N --seconds T --trace 0|1
     perf.exe compare A.json B.json [--benchmark BENCHMARK.json]
     perf.exe optima [--seed S]

   The first form generates the workloads' instances from S (default 1),
   runs 5 interleaved passes, rotating the workload order each pass,
   then one traced pass per workload, prints every metric and writes
   bsolo-perf/1 JSON (to perf.json unless --out is given).  It
   exits 1 when an answer is wrong or missing.

   [drive] runs one workload for about T seconds and prints one JSON
   result line last (BENCHMARK.json's command).  Its inputs are the
   seed-1 instances with the terms of every line shuffled by N: the
   parsed problems, and so the work, are the same for every N, because
   runtimes across instance seeds are too heavy-tailed to time one
   sample of them per run.

   [optima] solves every instance of seed S under proof logging and
   prints the checker's verdicts in the format of optima.txt. *)

open Perf_tier

let usage () =
  print_endline
    "usage: perf.exe [--seed S] [--workload NAME] [--out FILE] [--references FILE]\n\
    \       perf.exe drive --workload NAME --seed N --seconds T --trace 0|1\n\
    \       perf.exe compare A.json B.json [--benchmark FILE]\n\
    \       perf.exe optima [--seed S]"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

let now = Unix.gettimeofday

(* --- instances on disk --------------------------------------------------------- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Instances and proof logs live under the working directory, so a run
   writes nothing outside it; removed at exit. *)
let scratch_dir () =
  let root = ".perf_tmp" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  remove_tree dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      remove_tree dir;
      try Sys.rmdir root with Sys_error _ -> ());
  dir

(* --- passes ------------------------------------------------------------------- *)

type acc = {
  w : Workload.t;
  files : (string * string) list;  (** key, path *)
  mutable passes : (Pass.result, string) result list;  (** newest first *)
  mutable traced : (Pass.result, string) result list;
}

(* Write the workload's instances (once per instance: workloads share
   some) and start its record. *)
let prepare ~dir ~seed ~text_seed (w : Workload.t) =
  let files =
    List.map
      (fun spec ->
        let path = Filename.concat dir (Workload.file_name spec) in
        if not (Sys.file_exists path) then
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (Workload.opb_text ~text_seed spec));
        (Workload.key spec, path))
      (w.specs seed)
  in
  { w; files; passes = []; traced = [] }

let to_run a =
  {
    Report.workload = a.w;
    keys = List.map fst a.files;
    passes = List.rev a.passes;
    traced = List.rev a.traced;
  }

(* A pass gets 30 s per instance before it is killed: three times the
   solve limit, room for the proof check. *)
let run_pass ?(hard_stop = infinity) ~dir a ~traced =
  let t = now () in
  let deadline = Float.min hard_stop (t +. (30. *. float_of_int (List.length a.files))) in
  let out = Filename.concat dir (a.w.name ^ ".pass") in
  let r = Pass.spawn a.w ~traced ~out ~deadline (List.map snd a.files) in
  if traced then a.traced <- r :: a.traced else a.passes <- r :: a.passes;
  now () -. t

let references_or_fail path =
  if not (Sys.file_exists path) then fail "reference optima %s not found (see --references)" path;
  Workload.load_references path

let build_id () = Digest.to_hex (Digest.file Sys.executable_name)

(* --- the tier ---------------------------------------------------------------- *)

let passes = 5

let tier ~seed ~workloads ~out ~references =
  let references = references_or_fail references in
  let dir = scratch_dir () in
  let accs = List.map (prepare ~dir ~seed ~text_seed:0) workloads in
  let n = List.length accs in
  for p = 0 to passes - 1 do
    let order = List.init n (fun i -> List.nth accs ((i + p) mod n)) in
    List.iter
      (fun a ->
        let dt = run_pass ~dir a ~traced:false in
        Printf.printf "pass %d/%d %-17s %6.2f s\n%!" (p + 1) passes a.w.name dt)
      order
  done;
  List.iter
    (fun a ->
      let dt = run_pass ~dir a ~traced:true in
      Printf.printf "traced   %-17s %6.2f s\n%!" a.w.name dt)
    accs;
  let runs = List.map to_run accs in
  let failures = Report.failures ~references runs in
  List.iter
    (fun r -> Report.print_workload r ~failures:(List.assoc r.Report.workload.name failures))
    runs;
  let json = Report.to_json ~seed ~text_seed:0 ~build:(build_id ()) runs ~failures in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Telemetry.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" out;
  if List.exists (fun (_, f) -> f <> []) failures then exit 1

(* --- one workload, time-boxed (BENCHMARK.json) -------------------------------- *)

let drive ~name ~text_seed ~seconds ~trace ~references =
  let w = match Workload.find name with Some w -> w | None -> fail "unknown workload %S" name in
  let references = references_or_fail references in
  let start = now () in
  let dir = scratch_dir () in
  let a = prepare ~dir ~seed:1 ~text_seed w in
  (* The run must end well within 180 s even if a child hangs. *)
  let hard_stop = start +. 170. in
  let min_passes = if trace then 2 else 3 in
  let t0 = now () in
  let rec loop i durations =
    let expected = match durations with [] -> 0. | d -> Stats.median d in
    if i < min_passes || now () -. t0 +. expected <= seconds then begin
      (* with --trace 1, timed passes alternate with untimed ones so
         both see the same machine *)
      let traced = trace && i mod 2 = 1 in
      let dt = run_pass ~hard_stop ~dir a ~traced in
      Printf.printf "pass %d %s%s %.2f s\n%!" (i + 1) name
        (if traced then " (traced)" else "")
        dt;
      loop (i + 1) (dt :: durations)
    end
  in
  loop 0 [];
  let run = to_run a in
  let failures = List.assoc name (Report.failures ~references [ run ]) in
  Report.print_workload run ~failures;
  let metrics =
    if trace then Report.layers run
    else
      List.filter_map
        (fun (n, u, (s : Stats.summary), _) ->
          if n = "check_s" then None else Some (n, u, s.median))
        (Report.e2e run)
  in
  let open Telemetry.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (failures = []));
            ("attempted", Int (Report.attempted run));
            ("failed", Int (List.length failures));
            ( "metrics",
              Obj
                (List.map
                   (fun (n, u, v) -> (n, Obj [ ("value", Float v); ("unit", String u) ]))
                   metrics) );
          ]))

(* --- reference optima --------------------------------------------------------- *)

(* Every distinct instance of seed [seed], solved once under proof logging
   and checked; an instance whose log is not verified is reported and
   makes the command exit 1. *)
let optima ~seed =
  let dir = scratch_dir () in
  let specs =
    List.sort_uniq compare (List.concat_map (fun (w : Workload.t) -> w.specs seed) Workload.all)
  in
  let certified = Option.get (Workload.find "certified") in
  let ok = ref true in
  List.iter
    (fun spec ->
      let a = prepare ~dir ~seed ~text_seed:0 { certified with specs = (fun _ -> [ spec ]) } in
      ignore (run_pass ~dir a ~traced:false);
      match a.passes with
      | [ Ok { solved = [ { answer = Ok answer; _ } ]; _ } ] ->
        Printf.printf "%s %s\n%!" (Workload.key spec) answer
      | [ Ok { solved = [ { answer = Error e; _ } ]; _ } ] | [ Error e ] ->
        ok := false;
        Printf.printf "# %s NOT VERIFIED: %s\n%!" (Workload.key spec) e
      | _ -> assert false)
    specs;
  if not !ok then exit 1

(* --- command line -------------------------------------------------------------- *)

let () =
  Pass.run_as_child_if_requested ();
  let seed = ref 1 and workload = ref None and out = ref "perf.json" in
  let seconds = ref 20. and trace = ref false and benchmark = ref "BENCHMARK.json" in
  let references = ref "bench/perf/optima.txt" and positional = ref [] in
  let int_arg flag v = try int_of_string v with Failure _ -> fail "%s expects an integer" flag in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_int (int_arg "--seconds" v);
      parse rest
    | "--trace" :: v :: rest ->
      trace := int_arg "--trace" v <> 0;
      parse rest
    | "--benchmark" :: v :: rest ->
      benchmark := v;
      parse rest
    | "--references" :: v :: rest ->
      references := v;
      parse rest
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | v :: _ when String.length v > 0 && v.[0] = '-' ->
      usage ();
      fail "unknown argument %S" v
    | v :: rest ->
      positional := !positional @ [ v ];
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workloads () =
    match !workload with
    | None -> Workload.all
    | Some n -> (
      match Workload.find n with Some w -> [ w ] | None -> fail "unknown workload %S" n)
  in
  match !positional with
  | [] ->
    tier ~seed:!seed ~workloads:(workloads ()) ~out:!out ~references:!references
  | [ "drive" ] -> (
    match !workload with
    | Some name ->
      drive ~name ~text_seed:!seed ~seconds:!seconds ~trace:!trace ~references:!references
    | None -> fail "drive needs --workload")
  | [ "compare"; a; b ] ->
    let load path =
      match Telemetry.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j -> j
      | Error e -> fail "%s: %s" path e
      | exception Sys_error e -> fail "%s" e
    in
    let bounds = Report.bounds_of_benchmark (load !benchmark) in
    (match Report.compare ~bounds (load a) (load b) with
    | true -> ()
    | false -> exit 1
    | exception Failure msg -> fail "%s" msg)
  | [ "optima" ] -> optima ~seed:!seed
  | _ ->
    usage ();
    exit 2
