(* Gryff-RSC walkthrough: one-round reads, the dependency tuple, rmws, and
   the real-time fence — against the paper's five-region deployment.

   Run with: dune exec examples/gryff_sessions.exe *)

let ms t = Fmt.str "%.1f ms" (Sim.Engine.to_ms t)

let () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 13 in
  let cluster =
    Gryff.Cluster.create engine ~rng (Gryff.Config.wan5 ~mode:Gryff.Config.Rsc ())
  in
  Fmt.pr "Gryff-RSC on five regions (CA VA IR OR JP, Table 2 RTTs).@.@.";

  (* A counter service: writes initialize, rmws increment atomically. *)
  let tokyo = Gryff.Client.create cluster ~site:4 in
  let dublin = Gryff.Client.create cluster ~site:2 in

  let t0 = ref 0 in
  let stamp () =
    let d = Sim.Engine.now engine - !t0 in
    t0 := Sim.Engine.now engine;
    d
  in
  t0 := 0;
  Gryff.Client.write tokyo ~key:1 ~value:10 (fun w ->
      Fmt.pr "tokyo : write counter=10        %8s  cs=%a@." (ms (stamp ()))
        Gryff.Carstamp.pp w.Gryff.Protocol.w_cs;
      Gryff.Client.rmw tokyo ~key:1
        ~f:(fun v -> match v with None -> 1 | Some x -> x + 1)
        (fun m ->
          Fmt.pr "tokyo : rmw incr -> %d           %8s  cs=%a (consensus)@."
            m.Gryff.Protocol.m_value (ms (stamp ())) Gryff.Carstamp.pp
            m.Gryff.Protocol.m_cs;
          (* Dublin reads while Tokyo's next write is propagating: the read
             still takes one round; a dependency is recorded if the quorum
             disagreed. *)
          Gryff.Client.write tokyo ~key:1 ~value:50 (fun _ -> ());
          Sim.Engine.schedule engine ~after:150_000 (fun () ->
              let r0 = Sim.Engine.now engine in
              Gryff.Client.read dublin ~key:1 (fun r ->
                  Fmt.pr
                    "dublin: read -> %s        %8s  rounds=%d deps=%d@."
                    (match r.Gryff.Protocol.r_value with
                    | None -> "nil"
                    | Some v -> string_of_int v)
                    (ms (Sim.Engine.now engine - r0))
                    r.Gryff.Protocol.r_rounds
                    (List.length (Gryff.Client.deps dublin));
                  let f0 = Sim.Engine.now engine in
                  Gryff.Client.fence dublin (fun () ->
                      Fmt.pr
                        "dublin: fence (writes dep back) %8s  deps=%d@."
                        (ms (Sim.Engine.now engine - f0))
                        (List.length (Gryff.Client.deps dublin)))))));
  Sim.Engine.run engine;
  let s = Gryff.Cluster.stats cluster in
  Fmt.pr "@.stats: %d reads (%d with deferred write-back), %d writes, %d rmws (%d slow path)@."
    s.Gryff.Cluster.reads s.Gryff.Cluster.deps_created s.Gryff.Cluster.writes
    s.Gryff.Cluster.rmws s.Gryff.Cluster.rmw_slow;
  match Gryff.Cluster.check_history cluster with
  | Ok () -> Fmt.pr "history: verified against RSC (carstamp write order, all keys)@."
  | Error m -> Fmt.pr "history: VIOLATION %s@." m
