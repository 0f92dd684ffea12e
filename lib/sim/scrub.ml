(* Background durable-log scrubbing.

   A recurring engine event walks the stores registered with a fault
   control block, one store per period, and submits the verification work
   to a Station so the scan competes for the same simulated CPU as real
   requests. A flagged log gets an Obs.Trace Repair instant and its
   registered repairer invoked — surfacing latent corruption during idle
   time instead of at the moment recovery needs the entry.

   The scrubber draws no randomness and only runs when a fault control is
   armed, so fault-free seeded schedules are untouched. *)

type stats = {
  mutable passes : int;  (* store scans completed *)
  mutable entries : int;  (* log entries verified *)
  mutable flagged : int;  (* logs that failed verification *)
}

let start engine ~station ~ctl ?(tracer = Obs.Trace.disabled) ~period_us
    ~until_us () =
  let st = { passes = 0; entries = 0; flagged = 0 } in
  let cursor = ref 0 in
  let scan_next () =
    match Durable.Faults.stores ctl with
    | [] -> ()
    | stores ->
      let t = List.nth stores (!cursor mod List.length stores) in
      incr cursor;
      Station.submit ~cost:(Station.service_time_us station) station (fun () ->
          let scanned, flagged =
            Durable.scrub t ~on_flag:(fun v ->
                Obs.Trace.instant tracer ~kind:Obs.Trace.Repair
                  ~site:(Durable.site t)
                  ~name:
                    (Printf.sprintf "scrub %s/%d: %s" (Durable.name t)
                       (Durable.site t) (Durable.verified_name v))
                  ~ts:(Engine.now engine))
          in
          st.passes <- st.passes + 1;
          st.entries <- st.entries + scanned;
          st.flagged <- st.flagged + flagged)
  in
  let rec tick () =
    if Engine.now engine < until_us then begin
      scan_next ();
      Engine.schedule ~kind:"scrub" engine ~after:period_us tick
    end
  in
  Engine.schedule ~kind:"scrub" engine ~after:period_us tick;
  st
