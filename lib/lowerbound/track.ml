(* Bound-quality tracking: per-procedure tightness histograms and bound-
   conflict backjump attribution.  All instruments are bound once per run
   against the shared registry, so the per-call cost is a few stores.

   Tightness is recorded per mille of the gap the bound had to close:
   1000 * lb / (upper - path), clamped to [0, 1000].  A call scoring 1000
   closed the whole remaining gap (a bound conflict fires); 0 means the
   evaluation bought nothing at this node. *)

type t = {
  proc : string;  (* lower-case procedure name: "mis", "lgr", "lpr", "plain" *)
  tightness_pm : Telemetry.Histogram.t;  (* lb.<proc>.tightness_pm *)
  values : Telemetry.Histogram.t;  (* lb.<proc>.value: raw bound values *)
  bound_conflicts : Telemetry.Counter.t;  (* lb.<proc>.bound_conflicts *)
  bc_backjump : Telemetry.Histogram.t;  (* lb.<proc>.bc_backjump: levels undone *)
  path_conflicts : Telemetry.Counter.t;  (* lb.path.bound_conflicts *)
  path_backjump : Telemetry.Histogram.t;  (* lb.path.bc_backjump *)
  cell : Telemetry.Profile.Cell.t;  (* live lb for heartbeat monitors *)
  recorder : Telemetry.Recorder.t;  (* flight recorder: Prune events with blame *)
}

let create (tel : Telemetry.Ctx.t) ~proc =
  let reg = tel.registry in
  let h name = Telemetry.Registry.histogram reg name in
  let c name = Telemetry.Registry.counter reg name in
  {
    proc;
    tightness_pm = h ("lb." ^ proc ^ ".tightness_pm");
    values = h ("lb." ^ proc ^ ".value");
    bound_conflicts = c ("lb." ^ proc ^ ".bound_conflicts");
    bc_backjump = h ("lb." ^ proc ^ ".bc_backjump");
    path_conflicts = c "lb.path.bound_conflicts";
    path_backjump = h "lb.path.bc_backjump";
    cell = tel.cell;
    recorder = tel.recorder;
  }

let tightness_pm ~value ~need =
  if need <= 0 then 1000 else min 1000 (max 0 value * 1000 / need)

let note_call t ~value ~path ~upper =
  Telemetry.Histogram.observe t.tightness_pm (tightness_pm ~value ~need:(upper - path));
  Telemetry.Histogram.observe t.values value

(* A bound conflict fired; [lb_driven] tells whether the LB procedure
   contributed (value > 0) or the path cost alone reached the incumbent,
   so non-chronological backtracks are attributed to the procedure that
   actually earned them.  The same attribution feeds the flight
   recorder's Prune event, so post-mortem forensics blame exactly what
   the live counters credit. *)
let note_bound_conflict t ~lb_driven ~lb ~path ~upper ~from_level ~to_level =
  let jump = max 0 (from_level - to_level) in
  if lb_driven then begin
    Telemetry.Counter.incr t.bound_conflicts;
    Telemetry.Histogram.observe t.bc_backjump jump
  end
  else begin
    Telemetry.Counter.incr t.path_conflicts;
    Telemetry.Histogram.observe t.path_backjump jump
  end;
  Telemetry.Recorder.prune t.recorder
    ~blame:(if lb_driven then t.proc else "path")
    ~lb ~path ~upper ~from_level ~to_level

(* Publish a *globally valid* lower bound (a root-level evaluation, a
   best-first tree bound) to the context's profile cell for heartbeat
   monitors.  Node-local bounds may exceed the optimum on a subtree about
   to be pruned and must never reach the cell — the cell keeps the
   maximum and backs the non-widening heartbeat gap. *)
let publish_global_lb t ~lb =
  Telemetry.Profile.Cell.update_lb t.cell (float_of_int lb)
