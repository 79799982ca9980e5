(* Machine-speed calibration.

   The shared VM this tier was defined on runs the same pass up to 30%
   slower for minutes at a time, and CPU time drifts exactly as wall time
   does.  A fixed piece of CPU work, timed just before the first solve
   of a pass and just after its last, measures the machine's speed at
   that moment, and scaling the pass's times by [reference_s /. kernel_s]
   cancels much of the drift.  The kernel runs in the pass's own process:
   the two vCPUs of that VM drift separately, and a timing taken in the
   parent tracked the pass worse.
   The kernel uses only the standard library, never solver code, so a
   solver change cannot move it. *)

(* The kernel's duration on the 2-vCPU 2.0 GHz VM the tier was defined
   on: calibrated seconds are that machine's seconds. *)
let reference_s = 0.25

(* Sorting, hashing, allocation and float arithmetic, in fixed amounts. *)
let work () =
  let acc = ref 0 in
  for r = 1 to 6 do
    let a = Array.init 100_000 (fun i -> ((i * 7919) + (r * 31)) land 0xfffff) in
    Array.sort compare a;
    let h = Hashtbl.create 4096 in
    Array.iter (fun x -> Hashtbl.replace h (x land 0x3fff) x) a;
    acc := !acc + Hashtbl.length h;
    let l = List.init 20_000 (fun i -> float_of_int i *. 1.0001) in
    acc := !acc + int_of_float (List.fold_left ( +. ) 0. l)
  done;
  !acc

(* Wall seconds the kernel takes now, from a compacted heap. *)
let kernel_s () =
  Gc.compact ();
  let t = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t
