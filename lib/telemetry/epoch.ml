(* Process-wide wall-clock epoch.  Every time-stamped telemetry artifact
   (recorded events, spans, heartbeats) measures from the same zero,
   fixed the first time any domain asks for it, so streams produced by
   different sinks — or different portfolio domains — merge in one
   consistent timeline instead of each restarting at its own open time.
   CAS-initialized: concurrent first callers agree on a single value. *)

let cell : float option Atomic.t = Atomic.make None

let rec t0 () =
  match Atomic.get cell with
  | Some t -> t
  | None ->
    let now = Unix.gettimeofday () in
    if Atomic.compare_and_set cell None (Some now) then now else t0 ()

let now () = Unix.gettimeofday () -. t0 ()
