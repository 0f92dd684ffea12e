(* The machine's current speed, for scaling host times.

   On a shared machine the host's speed drifts over minutes: memory
   contention from other tenants slows every run in a phase alike, far
   more than run-to-run jitter does. Each measured process therefore also
   times [kernel], a fixed piece of memory-bound work, right after its
   run, and host times are reported at the speed at which [kernel] takes
   [nominal_s]. The kernel uses the standard library only, so no change to
   the repo's code can move it. *)

let nominal_s = 0.15

(* A hash table of a few megabytes under random inserts, a sort, and a
   stream of short-lived allocations: the kind of work the simulator's
   hot path does. *)
let kernel () =
  Gc.compact ();
  let t0 = Sys.time () in
  let h = Hashtbl.create 16 in
  let x = ref 12345 in
  for i = 1 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!x land 0xfffff) (i, [ i ])
  done;
  let a = Array.init 150_000 (fun i -> (i * 7919) land 0xffff) in
  Array.sort compare a;
  let l = ref [] in
  for i = 1 to 500_000 do
    l := (i, i) :: !l;
    if i land 1023 = 0 then l := []
  done;
  ignore (Sys.opaque_identity (h, a, !l));
  Sys.time () -. t0

(* Factor that scales a host time measured now to nominal speed. *)
let scale ~kernel_s = nominal_s /. kernel_s
