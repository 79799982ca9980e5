(* Deterministic replay: re-execute a flight recording's decision
   sequence through the engine and cross-check every emitted event
   against the recorded one.

   The replay is driven by two hooks threaded through Options:

   - [decision_oracle] feeds the recorded decisions back to the driver
     instead of the activity/phase heuristics;
   - [should_stop] ends the replay when the cursor reaches a final
     event, a fin with status "unknown" — the recorded run stopped on a
     budget there, and replay must stop at the same loop top rather
     than search on.

   Cross-checking rides the recorder itself: the replayed run gets an
   [Observer] recorder whose callback compares each event against the
   recording at the cursor and advances it.  Everything else about the
   engine is deterministic given the same decisions, so a faithful
   replay matches event for event; the first divergence is latched and
   the run is stopped. *)

module R = Telemetry.Recorder

(* Header flag bits: one per {!Options.switches} entry, plus two for the
   LP cut separation mode (both clear = off).  Bit 10 records that proof
   logging was on, which matters because certificate validation gates
   pruning (a failing certificate downgrades the prune to a plain
   decision).  Bit 7 once selected the warm (set) or the removed cold
   (clear) LPR path; it is still written on every recording so headers
   keep their layout, and an LPR recording with it clear cannot be
   replayed. *)
let flag_lpr_warm = 0x80
let flag_proof = 0x400
let cuts_bits = [ Options.Cuts_off, 0; Options.Cuts_root, 0x1000; Options.Cuts_tree, 0x2000 ]

let flags_of_options (o : Options.t) =
  List.fold_left
    (fun acc (s : Options.switch) -> if s.get o then acc lor s.bit else acc)
    (flag_lpr_warm lor List.assoc o.cuts cuts_bits
    lor if Option.is_some o.proof then flag_proof else 0)
    Options.switches

(* The header names the preset the run started from (its engine) and its
   lower-bound method; the flags carry every switch and the cuts mode.
   The preset supplies the rest, the learning mode included. *)
let options_of_header (h : R.header) =
  match
    ( List.assoc_opt (String.lowercase_ascii h.h_lb_method) Options.lb_methods,
      List.assoc_opt h.h_engine Options.presets )
  with
  | None, _ -> Error (Printf.sprintf "unknown lower-bound method %S in header" h.h_lb_method)
  | _, None -> Error (Printf.sprintf "replay cannot drive engine %S" h.h_engine)
  | Some lb_method, Some preset ->
    let has bit = h.h_flags land bit <> 0 in
    let o =
      List.fold_left (fun o (s : Options.switch) -> s.set o (has s.bit)) preset Options.switches
    in
    (* the later bit wins: tree over root *)
    let cuts =
      List.fold_left (fun m (mode, bit) -> if has bit then mode else m) Options.Cuts_off cuts_bits
    in
    Ok { o with lb_method; cuts; lgr_iters = h.h_lgr_iters }

type mismatch = {
  at : int;
  expected : string;
  got : string;
}

type report = {
  outcome : Outcome.t;
  checked : int;
  total : int;
  complete : bool;
  mismatch : mismatch option;
}

let has_event p (rc : R.recording) = List.exists (fun (_, e) -> p e) rc.r_events

let validate problem (rc : R.recording) =
  let h = rc.r_header in
  if not (List.mem_assoc h.h_engine Options.presets) then
    Error
      (Printf.sprintf
         "replay drives the %s engines only; this recording is from %S"
         (String.concat ", " (List.map fst Options.presets))
         h.h_engine)
  else if has_event (function R.Gap _ -> true | _ -> false) rc then
    Error
      "ring-buffer recording: the dropped prefix makes replay impossible (use --record, \
       not --record-ring)"
  else if has_event (function R.Section _ -> true | _ -> false) rc then
    Error "stitched portfolio recording: replay a single member's .part file instead"
  else if String.lowercase_ascii h.h_lb_method = "lpr" && h.h_flags land flag_lpr_warm = 0
  then Error "recorded under the removed --cold-lpr: the cold LPR path no longer exists"
  else if Pbo.Problem.nvars problem <> h.h_nvars then
    Error
      (Printf.sprintf "problem mismatch: header says %d variables, problem has %d"
         h.h_nvars (Pbo.Problem.nvars problem))
  else Ok h

(* Elapsed times are the one payload that legitimately differs between a
   run and its replay; everything else must be identical. *)
let normalize = function
  | R.Lb_eval e -> R.Lb_eval { e with elapsed_us = 0 }
  | e -> e

let show ev = Telemetry.Json.to_string (R.to_json ev)

let run ?proof_out problem (rc : R.recording) =
  match validate problem rc with
  | Error _ as e -> e
  | Ok h when proof_out <> None && h.h_flags land flag_proof = 0 ->
    Error "recording was made without --proof; there is no proof log to regenerate"
  | Ok h -> (
    match options_of_header h with
    | Error _ as e -> e
    | Ok options ->
      let expected = Array.of_list rc.r_events in
      let total = Array.length expected in
      (* A complete recording ends with its fin line; a truncated one
         (run killed mid-write) only constrains its surviving prefix,
         so events past its end are not divergences. *)
      let complete =
        (not rc.r_truncated)
        && total > 0
        && match snd expected.(total - 1) with R.Fin _ -> true | _ -> false
      in
      let pos = ref 0 and checked = ref 0 in
      let mism = ref None in
      let observe _t ev =
        match !mism with
        | Some _ -> ()
        | None ->
          if !pos >= total then begin
            if complete then
              mism :=
                Some { at = total; expected = "end of recording"; got = show ev }
          end
          else begin
            let exp = snd expected.(!pos) in
            if normalize exp = normalize ev then begin
              incr pos;
              incr checked
            end
            else
              mism :=
                Some
                  {
                    at = !pos;
                    expected = show exp;
                    got = show ev;
                  }
          end
      in
      let peek () =
        if !mism = None && !pos < total then Some (snd expected.(!pos)) else None
      in
      let oracle () =
        match peek () with
        | Some (R.Decision { var; value; _ }) -> Some (Pbo.Lit.make var value)
        | _ -> None
      in
      let stop () =
        !mism <> None
        (* the recorded run ran out of budget here: stop at the same
           loop top instead of searching past the recording's end *)
        || (match peek () with
           | Some (R.Fin { status = "unknown"; _ }) -> true
           | _ -> false)
        || ((not complete) && !pos >= total)
      in
      (* Proof mode gates pruning on certificate validation, so a
         proof-mode recording must be replayed with a (throwaway)
         logger to take the identical branches. *)
      let proof_tmp =
        if h.h_flags land flag_proof <> 0 then begin
          let path, keep =
            match proof_out with
            | Some p -> (p, true)
            | None -> (Filename.temp_file "bsolo-replay" ".pbp", false)
          in
          Some (path, Proof.Sink.open_file path, keep)
        end
        else None
      in
      let tel = Telemetry.Ctx.create ~timing:false ~recorder:(R.observer observe) () in
      let options =
        {
          options with
          telemetry = Some tel;
          decision_oracle = Some oracle;
          should_stop = Some stop;
          proof = Option.map (fun (_, sink, _) -> Proof.create sink problem) proof_tmp;
        }
      in
      let outcome = Solver.solve ~options problem in
      Option.iter
        (fun (path, sink, keep) ->
          Proof.Sink.close sink;
          if not keep then try Sys.remove path with Sys_error _ -> ())
        proof_tmp;
      Ok { outcome; checked = !checked; total; complete; mismatch = !mism })
