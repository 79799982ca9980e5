(* Wall-clock phase timers with nesting.  Time is attributed to the
   innermost active phase only (self time), so the per-phase totals
   partition the instrumented span and sum without double counting:
   entering a nested phase pauses the enclosing one.  A coarse phase's
   exit also writes its span, one complete event from the same entry and
   exit readings.  When disabled, [with_phase] costs one load, one branch
   and the call to [f]. *)

type t = {
  acc : float array;  (* self seconds per Phase.index *)
  mutable stack : int list;
  mutable last : float;  (* clock at the most recent phase transition *)
  mutable enabled : bool;
  spans : Span.t;
  track : int;
}

let now () = Unix.gettimeofday ()

let create ?(enabled = false) ?(spans = Span.disabled ()) ?(track = 0) () =
  { acc = Array.make Phase.count 0.; stack = []; last = 0.; enabled; spans; track }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b

let with_phase t phase f =
  if not t.enabled then f ()
  else begin
    let i = Phase.index phase in
    let entry = now () in
    (match t.stack with
    | outer :: _ -> t.acc.(outer) <- t.acc.(outer) +. (entry -. t.last)
    | [] -> ());
    t.stack <- i :: t.stack;
    t.last <- entry;
    Fun.protect
      ~finally:(fun () ->
        let exit_ = now () in
        t.acc.(i) <- t.acc.(i) +. (exit_ -. t.last);
        t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
        t.last <- exit_;
        if Phase.coarse phase then
          Span.complete t.spans ~track:t.track ~name:(Phase.name phase) ~start:entry ~stop:exit_)
      f
  end

let add_self ~into t = Array.iteri (fun i s -> into.acc.(i) <- into.acc.(i) +. s) t.acc
let self_seconds t phase = t.acc.(Phase.index phase)
let total_seconds t = Array.fold_left ( +. ) 0. t.acc

(* Phases with non-zero accumulated time, largest first. *)
let snapshot t =
  List.filter (fun (_, s) -> s > 0.) (List.map (fun p -> p, self_seconds t p) Phase.all)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let reset t =
  Array.fill t.acc 0 Phase.count 0.;
  t.stack <- [];
  t.last <- 0.
