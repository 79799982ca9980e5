(* Live solver cells.

   Each solver context owns a [Cell]: a lock-free "what am I doing right
   now" record a monitor domain can read at any moment.  The innermost
   current phase is one atomic ([None] when idle); [Ctx.with_phase]
   publishes a phase on entry and restores the enclosing one on exit.
   Only the owning domain writes a cell; any domain may read it.

   Bound cells (lb / ub / nodes) ride along so heartbeat snapshots can
   report per-member progress without touching the worker's registry.
   lb only ever goes up and ub only ever comes down, which keeps the
   reported gap monotonically non-widening. *)

module Cell = struct
  type t = {
    name : string;
    track : int;
    observed : bool;  (* false: publish is a no-op (silent runs) *)
    leaf : Phase.t option Atomic.t;
    lb : float Atomic.t;  (* neg_infinity until first bound *)
    ub : float Atomic.t;  (* infinity until first incumbent *)
    ub_self : bool Atomic.t;  (* last ub improvement found by this member *)
    mutable nodes : int;  (* owner-only writes; int reads never tear *)
  }

  let next_track = Atomic.make 1

  let create ~name ~track ~observed =
    {
      name;
      track;
      observed;
      leaf = Atomic.make None;
      lb = Atomic.make neg_infinity;
      ub = Atomic.make infinity;
      ub_self = Atomic.make false;
      nodes = 0;
    }

  let make ?(observed = true) ~name () =
    create ~name ~track:(Atomic.fetch_and_add next_track 1) ~observed

  let disabled () = create ~name:"" ~track:0 ~observed:false

  let observed c = c.observed
  let name c = c.name
  let track c = c.track
  let publish c phase = if c.observed then Atomic.set c.leaf phase
  let leaf c = Atomic.get c.leaf
  let update_lb c v = if v > Atomic.get c.lb then Atomic.set c.lb v

  let update_ub ?(self = true) c v =
    if v < Atomic.get c.ub then begin
      Atomic.set c.ub v;
      Atomic.set c.ub_self self
    end

  let lb c = Atomic.get c.lb
  let ub c = Atomic.get c.ub
  let ub_self c = Atomic.get c.ub_self
  let bump_nodes c = c.nodes <- c.nodes + 1
  let nodes c = c.nodes
end

(* The member table: which contexts the monitor should look at right
   now, each with its registry and exposition prefix.  Workers register
   around their run; the list is tiny, so one mutex is plenty. *)

type entry = { cell : Cell.t; registry : Registry.t; prefix : string }

let live_lock = Mutex.create ()
let live_entries : entry list ref = ref []

let register ?(prefix = "") cell registry =
  Mutex.lock live_lock;
  live_entries := { cell; registry; prefix } :: !live_entries;
  Mutex.unlock live_lock

let unregister c =
  Mutex.lock live_lock;
  live_entries := List.filter (fun e -> e.cell != c) !live_entries;
  Mutex.unlock live_lock

let live () =
  Mutex.lock live_lock;
  let es = !live_entries in
  Mutex.unlock live_lock;
  List.rev es
