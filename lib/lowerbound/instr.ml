(* Counter handles for the lower-bound procedures, and shared flushing of
   leaf-library stat records (simplex, subgradient) into a telemetry
   registry.  The leaf libraries stay free of telemetry dependencies; the
   lower-bound procedures bridge per-call records into the shared counter
   namespace after each evaluation. *)

type counter = {
  reg : Telemetry.Registry.t;
  name : string;
  mutable bound : Telemetry.Counter.t option;
}

let counter reg name = { reg; name; bound = None }

let add c n =
  if n <> 0 then begin
    match c.bound with
    | Some k -> Telemetry.Counter.add k n
    | None ->
      let k = Telemetry.Registry.counter c.reg c.name in
      c.bound <- Some k;
      Telemetry.Counter.add k n
  end

type simplex_counters = {
  s_calls : counter;
  s_iterations : counter;
  s_phase1_iters : counter;
  s_phase2_iters : counter;
  s_pivots : counter;
  s_refreshes : counter;
  s_refactors : counter;
}

let simplex_counters reg =
  {
    s_calls = counter reg "simplex.calls";
    s_iterations = counter reg "simplex.iterations";
    s_phase1_iters = counter reg "simplex.phase1_iters";
    s_phase2_iters = counter reg "simplex.phase2_iters";
    s_pivots = counter reg "simplex.pivots";
    s_refreshes = counter reg "simplex.refreshes";
    s_refactors = counter reg "simplex.refactors";
  }

let flush_simplex k (s : Simplex.stats) =
  add k.s_calls s.calls;
  add k.s_iterations s.iterations;
  add k.s_phase1_iters s.phase1_iters;
  add k.s_phase2_iters s.phase2_iters;
  add k.s_pivots s.pivots;
  add k.s_refreshes s.refreshes;
  add k.s_refactors s.refactors

let flush_subgradient reg (s : Lagrangian.Subgradient.stats) =
  let add name n = add (counter reg name) n in
  add "subgradient.calls" s.calls;
  add "subgradient.iterations" s.iterations;
  add "subgradient.improvements" s.improvements;
  add "subgradient.halvings" s.halvings
