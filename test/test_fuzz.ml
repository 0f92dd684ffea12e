(* Seed-sweep fuzzing: many short randomized runs of each system under
   contention-heavy parameters, every one verified against its consistency
   model. These are the tests most likely to shake out protocol races
   (network jitter reorders messages differently under every seed). *)

let check = Alcotest.check
let bool = Alcotest.bool

let spanner_fuzz_one ~mode ~seed =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Spanner.Config.wan3 ~mode () in
  let cluster = Spanner.Cluster.create engine ~rng config in
  let wl = Sim.Rng.split rng in
  (* Tiny keyspace = maximal contention; mixed shapes incl. upgrades. *)
  let clients = Array.init 8 (fun i -> Spanner.Client.create cluster ~site:(i mod 3)) in
  Workload.Client_model.closed_loop engine ~n_clients:8
    ~body:(fun ~client k ->
      let c = clients.(client) in
      let key () = Sim.Rng.int wl 6 in
      match Sim.Rng.int wl 4 with
      | 0 -> Spanner.Client.ro c ~keys:[ key (); key () ] (fun _ -> k ())
      | 1 -> Spanner.Client.ro c ~keys:[ key () ] (fun _ -> k ())
      | 2 ->
        let a = key () in
        Spanner.Client.rw c ~read_keys:[ a ] ~write_keys:[ a ] (fun _ -> k ())
      | _ ->
        let a = key () in
        let b = (a + 1 + Sim.Rng.int wl 5) mod 6 in
        Spanner.Client.rw c ~read_keys:[ key () ] ~write_keys:[ a; b ]
          (fun _ -> k ()))
    ~until:(Sim.Engine.sec 4.0) ();
  Sim.Engine.run ~max_events:20_000_000 engine;
  let drained = Sim.Engine.pending engine = 0 in
  (drained, Spanner.Cluster.check_history cluster)

let test_spanner_fuzz mode () =
  for seed = 1 to 25 do
    let drained, verdict = spanner_fuzz_one ~mode ~seed in
    check bool (Fmt.str "seed %d drained" seed) true drained;
    match verdict with
    | Ok () -> ()
    | Error m -> Alcotest.fail (Fmt.str "seed %d: %s" seed m)
  done

let gryff_fuzz_one ~mode ~seed =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Gryff.Config.wan5 ~mode () in
  let cluster = Gryff.Cluster.create engine ~rng config in
  let wl = Sim.Rng.split rng in
  let clients = Array.init 10 (fun i -> Gryff.Client.create cluster ~site:(i mod 5)) in
  Workload.Client_model.closed_loop engine ~n_clients:10
    ~body:(fun ~client k ->
      let c = clients.(client) in
      let key = Sim.Rng.int wl 4 in
      match Sim.Rng.int wl 3 with
      | 0 -> Gryff.Client.read c ~key (fun _ -> k ())
      | 1 ->
        (* Written values must be unique per key (history checking derives
           reads-from from values). Writes space cluster-allocated values
           10^6 apart, so an rmw counter's x + 1 never reaches the next
           write's value. *)
        let value = 1_000_000 * Gryff.Cluster.fresh_value cluster in
        Gryff.Client.write c ~key ~value (fun _ -> k ())
      | _ ->
        Gryff.Client.rmw c ~key
          ~f:(fun v -> match v with None -> 1 | Some x -> x + 1)
          (fun _ -> k ()))
    ~until:(Sim.Engine.sec 4.0) ();
  Sim.Engine.run ~max_events:20_000_000 engine;
  let drained = Sim.Engine.pending engine = 0 in
  (drained, Gryff.Cluster.check_history cluster)

let test_gryff_fuzz mode () =
  for seed = 1 to 25 do
    let drained, verdict = gryff_fuzz_one ~mode ~seed in
    check bool (Fmt.str "seed %d drained" seed) true drained;
    match verdict with
    | Ok () -> ()
    | Error m -> Alcotest.fail (Fmt.str "seed %d: %s" seed m)
  done

let test_postore_fuzz () =
  for seed = 1 to 25 do
    let engine = Sim.Engine.create () in
    let store = Postore.Store.create engine ~rng:(Sim.Rng.make seed) () in
    let wl = Sim.Rng.make (seed * 17) in
    let sessions = Array.init 5 (fun _ -> Postore.Store.session store) in
    Array.iteri
      (fun i s ->
        let rec loop n =
          if n > 0 then
            let key = Fmt.str "k%d" (Sim.Rng.int wl 3) in
            if Sim.Rng.bool wl 0.5 then
              Postore.Store.rw s ~reads:[ key ]
                ~writes:[ (key, (seed * 10_000) + (i * 1_000) + n) ]
                (fun _ -> loop (n - 1))
            else Postore.Store.ro s ~keys:[ key ] (fun _ -> loop (n - 1))
        in
        loop 12)
      sessions;
    Sim.Engine.run engine;
    match Postore.Store.check_history store with
    | Ok () -> ()
    | Error m -> Alcotest.fail (Fmt.str "seed %d: %s" seed m)
  done

(* Chaos + failover combined battery: the same seed-sweep idea, but with a
   nemesis active during the run. Leader-killing presets force the failover
   machinery (elections, client deadlines, retransmission) to carry the
   workload, and every surviving history must still verify — including the
   committed-but-unacknowledged operations the audit sweeps in. *)
let chaos_presets = Chaos.Nemesis.[ Leader_kill; Mixed ]

let test_chaos_fuzz protocol () =
  List.iter
    (fun preset ->
      for seed = 1 to 5 do
        let duration_s = 4.0 in
        let schedule =
          Chaos.Audit.nemesis_schedule protocol preset ~duration_s
            ~seed:(seed * 31)
        in
        let label =
          Fmt.str "%s/%s seed %d"
            (Chaos.Audit.protocol_name protocol)
            (Chaos.Nemesis.preset_name preset)
            seed
        in
        let r =
          Harness.audit
            ~env:Harness.Env.(default |> with_chaos schedule |> with_failover true)
            ~n_slots:6 protocol ~duration_s ~seed ()
        in
        (match r.Harness.Run.check with
        | Harness.Run.Pass -> ()
        | Harness.Run.Fail m | Harness.Run.Unknown m ->
          Alcotest.failf "%s: consistency violation: %s" label m);
        check bool (label ^ ": liveness resumed after heal") true
          (Harness.liveness_ok r);
        (* The checker must keep its teeth under chaos: corrupting one read
           to a stale version has to flip the verdict. *)
        match Harness.stale_control protocol r with
        | None | Some (Harness.Run.Fail _) -> ()
        | Some (Harness.Run.Pass | Harness.Run.Unknown _) ->
          Alcotest.failf "%s: stale-read corruption went undetected" label
      done)
    chaos_presets

let suites =
  [
    ( "fuzz",
      [
        Alcotest.test_case "spanner strict, 25 seeds" `Slow
          (test_spanner_fuzz Spanner.Config.Strict);
        Alcotest.test_case "spanner rss, 25 seeds" `Slow
          (test_spanner_fuzz Spanner.Config.Rss);
        Alcotest.test_case "gryff lin, 25 seeds" `Slow
          (test_gryff_fuzz Gryff.Config.Lin);
        Alcotest.test_case "gryff rsc, 25 seeds" `Slow
          (test_gryff_fuzz Gryff.Config.Rsc);
        Alcotest.test_case "postore, 25 seeds" `Slow test_postore_fuzz;
      ] );
    ( "fuzz.chaos",
      List.map
        (fun p ->
          Alcotest.test_case
            (Chaos.Audit.protocol_name p ^ " under nemesis, 2x5 seeds")
            `Slow (test_chaos_fuzz p))
        Chaos.Audit.protocols );
  ]
