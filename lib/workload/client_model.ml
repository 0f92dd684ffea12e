type body = client:int -> (unit -> unit) -> unit

let closed_loop engine ~n_clients ?(think_us = 0) ~body ~until () =
  let rec loop client () =
    if Sim.Engine.now engine < until then
      body ~client (fun () ->
          if think_us = 0 then loop client ()
          else Sim.Engine.schedule engine ~after:think_us (loop client))
  in
  for client = 0 to n_clients - 1 do
    Sim.Engine.schedule engine ~after:0 (loop client)
  done

let partly_open engine ~rng ~arrival_rate_per_sec ~stay ?(think_us = 0) ~body
    ~until () =
  if arrival_rate_per_sec <= 0.0 then
    invalid_arg "Client_model.partly_open: arrival rate must be positive";
  if stay < 0.0 || stay >= 1.0 then
    invalid_arg "Client_model.partly_open: stay probability must be in [0, 1)";
  let next_session = ref 0 in
  let mean_gap_us = 1_000_000.0 /. arrival_rate_per_sec in
  let rec session_step session () =
    body ~client:session (fun () ->
        if Sim.Rng.bool rng stay && Sim.Engine.now engine < until then
          if think_us = 0 then session_step session ()
          else Sim.Engine.schedule engine ~after:think_us (session_step session))
  in
  let rec arrivals () =
    if Sim.Engine.now engine < until then begin
      let session = !next_session in
      incr next_session;
      session_step session ();
      let gap = int_of_float (Sim.Rng.exponential rng ~mean:mean_gap_us) in
      Sim.Engine.schedule engine ~after:(max 1 gap) arrivals
    end
  in
  Sim.Engine.schedule engine ~after:0 arrivals;
  (* Upper bound: arrivals cannot outpace one per microsecond. *)
  min (until + 1) (int_of_float (arrival_rate_per_sec *. Sim.Engine.to_sec until) * 4 + 16)

let slots engine ~n_slots ~timeout_us ~on_timeout ~body ~until () =
  if n_slots <= 0 then invalid_arg "Client_model.slots: n_slots must be positive";
  let gen = Array.make n_slots 0 in
  let rec start slot =
    if Sim.Engine.now engine < until then run slot (slot + (n_slots * gen.(slot)))
  and run slot client =
    let g = gen.(slot) in
    let finished = ref false in
    let timeout =
      Sim.Engine.schedule_cancellable engine ~after:timeout_us (fun () ->
          if (not !finished) && gen.(slot) = g then begin
            on_timeout ~client;
            gen.(slot) <- g + 1;
            start slot
          end)
    in
    body ~client (fun () ->
        finished := true;
        Sim.Engine.cancel engine timeout;
        if gen.(slot) = g && Sim.Engine.now engine < until then run slot client)
  in
  for slot = 0 to n_slots - 1 do
    start slot
  done
