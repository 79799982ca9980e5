(* One telemetry context per solver run: phase timer, counter registry,
   span sink, live cell and flight recorder travel together.  [silent]
   is the default used when the caller asked for nothing: counters still
   accumulate (they back the outcome snapshot) but the timer is off, no
   spans or recording are written and the cell is inert. *)

type t = {
  timer : Timer.t;
  registry : Registry.t;
  spans : Span.t;
  cell : Profile.Cell.t;
  recorder : Recorder.t;
}

let create ?(timing = true) ?spans ?cell ?recorder () =
  let registry = Registry.create () in
  let recorder = match recorder with Some r -> r | None -> Recorder.disabled () in
  let spans = match spans with Some s -> s | None -> Span.disabled () in
  let cell = match cell with Some c -> c | None -> Profile.Cell.disabled () in
  {
    (* Spans are the timer's output, so a span sink turns it on. *)
    timer =
      Timer.create ~enabled:(timing || Span.enabled spans) ~spans ~track:(Profile.Cell.track cell)
        ();
    registry;
    spans;
    cell;
    recorder;
  }

let silent () = create ~timing:false ()

(* The engines' incumbent, import and refusal bookkeeping, one call
   each: the recorder's event, the live cell's
   upper bound and, for imports and refusals, their counters.  Both
   counters are registered on first use: a run that never imports or
   refuses a model lists neither. *)
let incumbent t ~cost =
  Recorder.incumbent t.recorder ~cost;
  Profile.Cell.update_ub ~self:true t.cell (float_of_int cost)

let import t ~cost ~member =
  Counter.incr (Registry.counter t.registry "search.incumbent_imports");
  Recorder.import t.recorder ~cost ~member;
  Profile.Cell.update_ub ~self:false t.cell (float_of_int cost)

let reject t = Counter.incr (Registry.counter t.registry "search.incumbent_rejects")

(* Phase attribution for the whole observability stack in one call:
   exact self-time and, for coarse phases, the span (both the timer's)
   and the live cell's current phase (published on entry, the enclosing
   phase restored on exit).  With no cell observed this is exactly
   Timer.with_phase: one extra load and branch. *)
let with_phase t phase f =
  if Profile.Cell.observed t.cell then begin
    let outer = Profile.Cell.leaf t.cell in
    Profile.Cell.publish t.cell (Some phase);
    Fun.protect
      ~finally:(fun () -> Profile.Cell.publish t.cell outer)
      (fun () -> Timer.with_phase t.timer phase f)
  end
  else Timer.with_phase t.timer phase f

let close t =
  Span.close t.spans;
  Recorder.close t.recorder
