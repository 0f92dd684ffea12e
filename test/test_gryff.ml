(* Tests for Gryff / Gryff-RSC: carstamps, the shared-register read/write
   protocols (one- vs two-round reads), EPaxos-style rmws, dependency
   piggybacking, fences, and end-to-end witness checks of randomized runs. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mk ?(mode = Gryff.Config.Rsc) ?(seed = 42) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Gryff.Config.wan5 ~mode () in
  let cluster = Gryff.Cluster.create engine ~rng config in
  (engine, cluster)

let run = Sim.Engine.run

(* ------------------------------------------------------------------ *)
(* Carstamps                                                           *)
(* ------------------------------------------------------------------ *)

let test_carstamp_order () =
  let base = Gryff.Carstamp.zero in
  let w1 = Gryff.Carstamp.for_write ~base ~cid:1 in
  let w2 = Gryff.Carstamp.for_write ~base:w1 ~cid:2 in
  let m1 = Gryff.Carstamp.for_rmw ~base:w1 in
  check bool "write after base" true Gryff.Carstamp.(w1 > base);
  check bool "rmw after its base write" true Gryff.Carstamp.(m1 > w1);
  check bool "rmw before next write" true Gryff.Carstamp.(w2 > m1);
  let m2 = Gryff.Carstamp.for_rmw ~base:m1 in
  check bool "rmw chains" true Gryff.Carstamp.(m2 > m1);
  (* The Lemma B.10 case: an rmw on w1 sorts before a concurrent same-ts
     write by a higher client id — no write can slip between an rmw and its
     base. *)
  let w1' = Gryff.Carstamp.for_write ~base ~cid:5 in
  check bool "rmw sticks to its base" true Gryff.Carstamp.(w1' > m1)

let test_carstamp_tiebreak () =
  let base = Gryff.Carstamp.zero in
  let a = Gryff.Carstamp.for_write ~base ~cid:1 in
  let b = Gryff.Carstamp.for_write ~base ~cid:2 in
  check bool "same ts, cid breaks tie" true Gryff.Carstamp.(b > a);
  check bool "not equal" false (Gryff.Carstamp.equal a b)

let prop_carstamp_total_order =
  QCheck.Test.make ~name:"carstamp compare is a total order" ~count:300
    QCheck.(triple (pair small_nat small_nat) (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((a1, a2), (b1, b2), (c1, c2)) ->
      let mk (ts, rmwc) = { Gryff.Carstamp.ts; rmwc; cid = (ts + rmwc) mod 3 } in
      ignore mk;
      let mk (ts, rmwc) = { Gryff.Carstamp.ts; cid = (ts + rmwc) mod 3; rmwc } in
      let a = mk (a1, a2) and b = mk (b1, b2) and c = mk (c1, c2) in
      let cmp = Gryff.Carstamp.compare in
      (* antisymmetry and transitivity on the sampled triple *)
      (cmp a b = -cmp b a)
      && ((not (cmp a b <= 0 && cmp b c <= 0)) || cmp a c <= 0))

(* ------------------------------------------------------------------ *)
(* Reads and writes                                                    *)
(* ------------------------------------------------------------------ *)

let test_write_then_read () =
  let engine, cluster = mk () in
  let c = Gryff.Client.create cluster ~site:0 in
  let got = ref None in
  Gryff.Client.write c ~key:7 ~value:99 (fun _ ->
      Gryff.Client.read c ~key:7 (fun r -> got := Some r));
  run engine;
  match !got with
  | Some r ->
    check bool "value read" true (r.Gryff.Protocol.r_value = Some 99);
    check int "one round (stable value)" 1 r.Gryff.Protocol.r_rounds
  | None -> Alcotest.fail "did not complete"

let test_read_empty () =
  let engine, cluster = mk () in
  let c = Gryff.Client.create cluster ~site:2 in
  let got = ref None in
  Gryff.Client.read c ~key:5 (fun r -> got := Some r);
  run engine;
  match !got with
  | Some r ->
    check bool "nil" true (r.Gryff.Protocol.r_value = None);
    check int "one round" 1 r.Gryff.Protocol.r_rounds
  | None -> Alcotest.fail "did not complete"

let test_read_latency_is_quorum_rtt () =
  (* A client in IR: nearest quorum is {IR, VA(88), OR(145)} — a one-round
     read costs ~145 ms (the paper's p99 for low conflict). *)
  let engine, cluster = mk () in
  let c = Gryff.Client.create cluster ~site:2 in
  let lat = ref 0 in
  Gryff.Client.read c ~key:1 (fun _ -> lat := Sim.Engine.now engine);
  run engine;
  check bool "~145ms quorum" true (!lat >= 145_000 && !lat < 152_000)

let test_read_latency_geometry_all_sites () =
  (* One-round read latency from each region = RTT to its 3rd-nearest
     replica (including itself), straight from Table 2 — this grounds the
     simulator-substitution claim in DESIGN.md. *)
  let expected = [ (0, 72.0); (1, 88.0); (2, 145.0); (3, 93.0); (4, 121.0) ] in
  List.iter
    (fun (site, rtt_ms) ->
      let engine, cluster = mk ~seed:(100 + site) () in
      let c = Gryff.Client.create cluster ~site in
      let lat = ref 0 in
      Gryff.Client.read c ~key:1 (fun _ -> lat := Sim.Engine.now engine);
      run engine;
      let base = Sim.Engine.ms rtt_ms in
      check bool
        (Fmt.str "site %d read ~%.0fms (got %.1f)" site rtt_ms
           (Sim.Engine.to_ms !lat))
        true
        (!lat >= base && !lat <= base + (base / 25)))
    expected

(* Read racing a write's propagation. The writer sits in JP; its second
   phase reaches CA/OR/VA tens of ms before IR. A reader in IR queries its
   nearest quorum {IR, VA, OR}: fired at 170 ms, the IR replica has not yet
   applied the write (arrives ~231 ms) while VA (~202 ms, queried at ~214)
   and OR (~182, queried at ~243) have — a guaranteed split quorum. *)
let concurrent_read ~mode =
  let engine, cluster = mk ~mode () in
  let writer = Gryff.Client.create cluster ~site:4 in
  let reader = Gryff.Client.create cluster ~site:2 in
  let read_res = ref None in
  let read_lat = ref 0 in
  Gryff.Client.write writer ~key:3 ~value:1 (fun _ -> ());
  Sim.Engine.schedule engine ~after:170_000 (fun () ->
      let t0 = Sim.Engine.now engine in
      Gryff.Client.read reader ~key:3 (fun r ->
          read_res := Some r;
          read_lat := Sim.Engine.now engine - t0));
  run engine;
  (!read_res, !read_lat)

let test_lin_read_two_rounds_under_conflict () =
  match concurrent_read ~mode:Gryff.Config.Lin with
  | Some r, lat ->
    check int "two rounds" 2 r.Gryff.Protocol.r_rounds;
    check bool "latency ≥ 2 quorum RTTs" true (lat >= 280_000)
  | None, _ -> Alcotest.fail "read did not complete"

let test_rsc_read_one_round_under_conflict () =
  match concurrent_read ~mode:Gryff.Config.Rsc with
  | Some r, lat ->
    check int "one round" 1 r.Gryff.Protocol.r_rounds;
    check bool "latency = 1 quorum RTT" true (lat < 160_000);
    check bool "value still returned" true (r.Gryff.Protocol.r_value = Some 1)
  | None, _ -> Alcotest.fail "read did not complete"

let test_rsc_dep_created_and_cleared () =
  let engine, cluster = mk ~mode:Gryff.Config.Rsc () in
  let writer = Gryff.Client.create cluster ~site:4 in
  let reader = Gryff.Client.create cluster ~site:2 in
  Gryff.Client.write writer ~key:3 ~value:1 (fun _ -> ());
  Sim.Engine.schedule engine ~after:170_000 (fun () ->
      Gryff.Client.read reader ~key:3 (fun r ->
          check int "one round" 1 r.Gryff.Protocol.r_rounds;
          check int "dependency recorded" 1 (List.length (Gryff.Client.deps reader));
          (* The next operation clears it. *)
          Gryff.Client.read reader ~key:9 (fun _ ->
              check int "dependency cleared" 0
                (List.length (Gryff.Client.deps reader)))));
  run engine

let test_rsc_session_reads_monotone () =
  (* After observing the new value via a dependency, the same session can
     never read the older one again: the dep rides on the next read. *)
  let engine, cluster = mk ~mode:Gryff.Config.Rsc ~seed:4 () in
  let writer = Gryff.Client.create cluster ~site:0 in
  let reader = Gryff.Client.create cluster ~site:4 in
  let seen = ref [] in
  Gryff.Client.write writer ~key:3 ~value:1 (fun _ ->
      Gryff.Client.write writer ~key:3 ~value:2 (fun _ -> ()));
  let rec read_loop n =
    if n > 0 then
      Gryff.Client.read reader ~key:3 (fun r ->
          seen := r.Gryff.Protocol.r_value :: !seen;
          read_loop (n - 1))
  in
  Sim.Engine.schedule engine ~after:100_000 (fun () -> read_loop 8);
  run engine;
  let vs = List.rev !seen in
  let rec monotone prev = function
    | [] -> true
    | v :: rest ->
      let n = match v with None -> 0 | Some x -> x in
      n >= prev && monotone n rest
  in
  check bool "session values never go backwards" true (monotone 0 vs)

(* ------------------------------------------------------------------ *)
(* Rmws                                                                *)
(* ------------------------------------------------------------------ *)

let incr_fn v = match v with None -> 1 | Some x -> x + 1

let test_rmw_basic () =
  let engine, cluster = mk () in
  let c = Gryff.Client.create cluster ~site:1 in
  let got = ref None in
  Gryff.Client.rmw c ~key:2 ~f:incr_fn (fun r ->
      Gryff.Client.rmw c ~key:2 ~f:incr_fn (fun r2 -> got := Some (r, r2)));
  run engine;
  match !got with
  | Some (r1, r2) ->
    check bool "first incr" true (r1.Gryff.Protocol.m_value = 1);
    check bool "second incr" true (r2.Gryff.Protocol.m_value = 2);
    check bool "carstamps ordered" true
      Gryff.Carstamp.(r2.Gryff.Protocol.m_cs > r1.Gryff.Protocol.m_cs)
  | None -> Alcotest.fail "rmws did not complete"

let test_rmw_after_write () =
  let engine, cluster = mk () in
  let c = Gryff.Client.create cluster ~site:0 in
  let got = ref None in
  Gryff.Client.write c ~key:2 ~value:10 (fun w ->
      Gryff.Client.rmw c ~key:2 ~f:incr_fn (fun r -> got := Some (w, r)));
  run engine;
  match !got with
  | Some (w, r) ->
    check bool "rmw saw the write" true (r.Gryff.Protocol.m_observed = Some 10);
    check bool "result" true (r.Gryff.Protocol.m_value = 11);
    check bool "rmw cs slots after write" true
      Gryff.Carstamp.(r.Gryff.Protocol.m_cs > w.Gryff.Protocol.w_cs);
    check int "same ts, bumped rmwc" w.Gryff.Protocol.w_cs.Gryff.Carstamp.ts
      r.Gryff.Protocol.m_cs.Gryff.Carstamp.ts;
    check int "inherits the base's cid" w.Gryff.Protocol.w_cs.Gryff.Carstamp.cid
      r.Gryff.Protocol.m_cs.Gryff.Carstamp.cid
  | None -> Alcotest.fail "did not complete"

let test_rmw_visible_once_complete () =
  (* Regression: an rmw must not complete before its result is applied at a
     quorum — otherwise a subsequent read from any region could miss it. *)
  List.iter
    (fun mode ->
      for seed = 1 to 10 do
        let engine = Sim.Engine.create () in
        let cluster =
          Gryff.Cluster.create engine ~rng:(Sim.Rng.make seed)
            (Gryff.Config.wan5 ~mode ())
        in
        let actor = Gryff.Client.create cluster ~site:(seed mod 5) in
        let observer = Gryff.Client.create cluster ~site:((seed + 2) mod 5) in
        let seen = ref None in
        Gryff.Client.rmw actor ~key:1 ~f:incr_fn (fun m ->
            Gryff.Client.read observer ~key:1 (fun r ->
                seen := Some (m.Gryff.Protocol.m_value, r.Gryff.Protocol.r_value)));
        Sim.Engine.run engine;
        match !seen with
        | Some (written, Some observed) when observed >= written -> ()
        | Some (_, _) -> Alcotest.fail (Fmt.str "seed %d: read missed completed rmw" seed)
        | None -> Alcotest.fail "did not complete"
      done)
    [ Gryff.Config.Lin; Gryff.Config.Rsc ]

let test_rmw_concurrent_atomic () =
  (* Five clients, one per region, concurrently increment one counter many
     times: every increment must take effect exactly once. *)
  let engine, cluster = mk ~seed:9 () in
  let n_per_client = 10 in
  let done_count = ref 0 in
  for site = 0 to 4 do
    let c = Gryff.Client.create cluster ~site in
    let rec loop n =
      if n > 0 then
        Gryff.Client.rmw c ~key:0 ~f:incr_fn (fun _ -> incr_done (n - 1))
    and incr_done n =
      incr done_count;
      loop n
    in
    loop n_per_client
  done;
  Sim.Engine.run ~max_events:10_000_000 engine;
  check int "all rmws done" 50 !done_count;
  (* Read the final value. *)
  let final = ref None in
  let c = Gryff.Client.create cluster ~site:0 in
  Gryff.Client.rmw c ~key:0 ~f:(fun v -> match v with None -> 0 | Some x -> x)
    (fun r -> final := r.Gryff.Protocol.m_observed);
  run engine;
  check bool "no lost increments" true (!final = Some 50)

let test_rmw_interference_uses_slow_path () =
  let engine, cluster = mk ~seed:10 () in
  for site = 0 to 4 do
    let c = Gryff.Client.create cluster ~site in
    let rec loop n = if n > 0 then Gryff.Client.rmw c ~key:0 ~f:incr_fn (fun _ -> loop (n - 1)) in
    loop 5
  done;
  Sim.Engine.run ~max_events:10_000_000 engine;
  let s = Gryff.Cluster.stats cluster in
  check int "rmws" 25 s.Gryff.Cluster.rmws;
  check bool "some took the accept round" true (s.Gryff.Cluster.rmw_slow > 0)

(* ------------------------------------------------------------------ *)
(* Fences and cross-client causality                                   *)
(* ------------------------------------------------------------------ *)

let test_fence_makes_dep_visible () =
  (* Reader A observes an in-flight value one-round (dep pending); after A's
     fence, ANY fresh client must observe it too. *)
  let engine, cluster = mk ~mode:Gryff.Config.Rsc ~seed:5 () in
  let writer = Gryff.Client.create cluster ~site:4 in
  let a = Gryff.Client.create cluster ~site:2 in
  Gryff.Client.write writer ~key:3 ~value:1 (fun _ -> ());
  Sim.Engine.schedule engine ~after:170_000 (fun () ->
      Gryff.Client.read a ~key:3 (fun r ->
          let seen = r.Gryff.Protocol.r_value in
          Gryff.Client.fence a (fun () ->
              let b = Gryff.Client.create cluster ~site:4 in
              Gryff.Client.read b ~key:3 (fun rb ->
                  let seen_b =
                    match (rb.Gryff.Protocol.r_value, seen) with
                    | Some vb, Some va -> vb >= va
                    | None, Some _ -> false
                    | _, None -> true
                  in
                  check bool "post-fence reader sees at least as much" true seen_b))));
  run engine

let test_absorb_deps_cross_client () =
  (* A reads an in-flight value, "calls" B (context propagation): B's next
     read must return at least as new a value. *)
  let engine, cluster = mk ~mode:Gryff.Config.Rsc ~seed:6 () in
  let writer = Gryff.Client.create cluster ~site:4 in
  let a = Gryff.Client.create cluster ~site:2 in
  let b = Gryff.Client.create cluster ~site:0 in
  Gryff.Client.write writer ~key:3 ~value:1 (fun _ -> ());
  Sim.Engine.schedule engine ~after:170_000 (fun () ->
      Gryff.Client.read a ~key:3 (fun ra ->
          Gryff.Client.absorb_deps b (Gryff.Client.deps a);
          Gryff.Client.read b ~key:3 (fun rb ->
              let ok =
                match (ra.Gryff.Protocol.r_value, rb.Gryff.Protocol.r_value) with
                | Some va, Some vb -> vb >= va
                | None, _ -> true
                | Some _, None -> false
              in
              check bool "causally-later read at least as new" true ok)));
  run engine

(* ------------------------------------------------------------------ *)
(* Failure tolerance                                                   *)
(* ------------------------------------------------------------------ *)

let test_tolerates_two_replica_crashes () =
  (* 5 replicas, quorum 3: any two may crash and every operation kind still
     completes (clients and rmw coordinators must be at live sites). *)
  let engine, cluster = mk ~mode:Gryff.Config.Rsc ~seed:7 () in
  Sim.Net.set_down (Gryff.Cluster.net cluster) 1;
  Sim.Net.set_down (Gryff.Cluster.net cluster) 3;
  let c = Gryff.Client.create cluster ~site:0 in
  let done_ = ref false in
  Gryff.Client.write c ~key:5 ~value:50 (fun _ ->
      Gryff.Client.read c ~key:5 (fun r ->
          check bool "read sees the write" true (r.Gryff.Protocol.r_value = Some 50);
          Gryff.Client.rmw c ~key:5 ~f:incr_fn (fun m ->
              check bool "rmw applied" true (m.Gryff.Protocol.m_value = 51);
              done_ := true)));
  Sim.Engine.run ~max_events:5_000_000 engine;
  check bool "all ops completed with 2 crashes" true !done_;
  (match Gryff.Cluster.check_history cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check bool "messages were dropped" true
    (Sim.Net.messages_dropped (Gryff.Cluster.net cluster) > 0)

let test_stalls_beyond_quorum_loss () =
  (* Three crashes exceed f: operations cannot complete (and must not
     complete wrongly). *)
  let engine, cluster = mk ~mode:Gryff.Config.Rsc ~seed:8 () in
  List.iter (Sim.Net.set_down (Gryff.Cluster.net cluster)) [ 1; 2; 3 ];
  let c = Gryff.Client.create cluster ~site:0 in
  let completed = ref false in
  Gryff.Client.read c ~key:5 (fun _ -> completed := true);
  Sim.Engine.run ~max_events:5_000_000 engine;
  check bool "read never completes" false !completed

let test_recovery_after_restart () =
  let engine, cluster = mk ~mode:Gryff.Config.Rsc ~seed:9 () in
  List.iter (Sim.Net.set_down (Gryff.Cluster.net cluster)) [ 1; 2; 3 ];
  let c = Gryff.Client.create cluster ~site:0 in
  let completed = ref false in
  (* Bring one replica back before issuing: quorum restored. *)
  Sim.Engine.schedule engine ~after:50_000 (fun () ->
      Sim.Net.set_up (Gryff.Cluster.net cluster) 1;
      Gryff.Client.write c ~key:6 ~value:60 (fun _ -> completed := true));
  Sim.Engine.run ~max_events:5_000_000 engine;
  check bool "write completes after recovery" true !completed

(* ------------------------------------------------------------------ *)
(* End-to-end randomized runs + witness                                *)
(* ------------------------------------------------------------------ *)

let random_run ?(n_clients = 16) ?(n_keys = 500) ~mode ~seed ~conflict
    ~write_ratio ~until () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let config = Gryff.Config.wan5 ~mode () in
  let cluster = Gryff.Cluster.create engine ~rng config in
  let wl_rng = Sim.Rng.split rng in
  let ycsb = Workload.Ycsb.create ~rng:wl_rng ~n_keys ~write_ratio ~conflict in
  let next_val = ref 0 in
  let clients =
    Array.init n_clients (fun i -> Gryff.Client.create cluster ~site:(i mod 5))
  in
  Workload.Client_model.closed_loop engine ~n_clients
    ~body:(fun ~client k ->
      let c = clients.(client) in
      let op = Workload.Ycsb.sample ycsb in
      if op.Workload.Ycsb.is_write then begin
        incr next_val;
        Gryff.Client.write c ~key:op.Workload.Ycsb.key ~value:!next_val (fun _ -> k ())
      end
      else Gryff.Client.read c ~key:op.Workload.Ycsb.key (fun _ -> k ()))
    ~until ();
  Sim.Engine.run ~max_events:30_000_000 engine;
  cluster

let test_random_run_rsc_witness () =
  let cluster =
    random_run ~mode:Gryff.Config.Rsc ~seed:21 ~conflict:0.25 ~write_ratio:0.5
      ~until:(Sim.Engine.sec 30.0) ()
  in
  let s = Gryff.Cluster.stats cluster in
  check bool "load" true (s.Gryff.Cluster.reads > 500);
  check bool "deps were exercised" true (s.Gryff.Cluster.deps_created > 0);
  check int "rsc never pays a second round" 0 s.Gryff.Cluster.read_second_round;
  match Gryff.Cluster.check_history cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("rsc witness: " ^ m)

let test_random_run_lin_witness () =
  let cluster =
    random_run ~mode:Gryff.Config.Lin ~seed:22 ~conflict:0.25 ~write_ratio:0.5
      ~until:(Sim.Engine.sec 30.0) ()
  in
  let s = Gryff.Cluster.stats cluster in
  check bool "load" true (s.Gryff.Cluster.reads > 500);
  check bool "lin pays second rounds under conflict" true
    (s.Gryff.Cluster.read_second_round > 0);
  match Gryff.Cluster.check_history cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("lin witness: " ^ m)

let test_determinism () =
  let run () =
    let c =
      random_run ~n_clients:8 ~mode:Gryff.Config.Rsc ~seed:31 ~conflict:0.2
        ~write_ratio:0.4 ~until:(Sim.Engine.sec 5.0) ()
    in
    let s = Gryff.Cluster.stats c in
    ( s.Gryff.Cluster.reads,
      s.Gryff.Cluster.writes,
      s.Gryff.Cluster.deps_created,
      s.Gryff.Cluster.messages )
  in
  check bool "identical stats" true (run () = run ())

let test_small_run_full_rsc_search () =
  (* Convert a small two-key run into a register history and run the exact
     RSC search checker — this covers the cross-key causality that the
     per-key witness cannot. *)
  let cluster =
    random_run ~n_clients:3 ~n_keys:2 ~mode:Gryff.Config.Rsc ~seed:23
      ~conflict:0.5 ~write_ratio:0.5 ~until:600_000 ()
  in
  let records = Gryff.Cluster.records cluster in
  let n = Array.length records in
  check bool "small but non-trivial" true (n > 4 && n < 40);
  let h =
    Array.to_list records
    |> List.mapi (fun id (r : Gryff.Cluster.record) ->
           let key = string_of_int r.Gryff.Cluster.g_key in
           Rss_core.Txn_history.of_witness ~id (Gryff.Cluster.witness_txn ~key r))
    |> Rss_core.Txn_history.make
  in
  check bool "run satisfies RSC (search checker)" true
    (Rss_core.Check_txn.satisfies ~max_states:5_000_000 h Rss_core.Check_txn.Rss
    = Some true)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Minor words per read and per write on a seeded five-replica single-DC
   deployment: one client at site 0, no deps, one key, each op run to
   completion before the next. A round of 100 ops warms the engine's
   arrays, then 1000 ops are counted. Every read fans out to all five
   replicas and every write makes two such rounds, so a closure built per
   leg shows here five or ten times. Retransmission armed, every leg also
   rides a [Sim.Rpc] call, which adds 23 words: the call record and its
   reply and timeout closures. The figures are the dev profile's (tier-1
   builds every module with [-opaque]); a change that moves them names
   the move. *)
let gryff_words_per_op ~retrans =
  let engine = Sim.Engine.create () in
  let config =
    Gryff.Config.single_dc ~mode:Gryff.Config.Rsc ~service_time_us:10 ()
  in
  let cluster = Gryff.Cluster.create engine ~rng:(Sim.Rng.make 42) config in
  if retrans then Gryff.Cluster.enable_retrans cluster ~rng:(Sim.Rng.make 43) ();
  let ctx = Gryff.Cluster.ctx cluster in
  let per_op op =
    let round () =
      for _ = 1 to 100 do
        op ();
        run engine
      done
    in
    round ();
    let before = Gc.minor_words () in
    for _ = 1 to 10 do
      round ()
    done;
    (Gc.minor_words () -. before) /. 1000.
  in
  let write =
    per_op (fun () ->
        Gryff.Protocol.write ctx ~client_site:0 ~cid:1 ~deps:[] ~key:7 ~value:99
          ignore)
  in
  let read =
    per_op (fun () ->
        Gryff.Protocol.read ctx ~client_site:0 ~cid:1 ~deps:[] ~key:7 ignore)
  in
  (read, write)

let test_allocation_per_op () =
  let read, write = gryff_words_per_op ~retrans:false in
  let read_rt, write_rt = gryff_words_per_op ~retrans:true in
  check (Alcotest.float 0.0) "read: minor words" 236.0 read;
  check (Alcotest.float 0.0) "write: minor words" 448.0 write;
  check (Alcotest.float 0.0) "read, retransmission armed: minor words" 351.0
    read_rt;
  check (Alcotest.float 0.0) "write, retransmission armed: minor words"
    678.0 write_rt

let suites =
  [
    ( "gryff.carstamp",
      [
        Alcotest.test_case "ordering" `Quick test_carstamp_order;
        Alcotest.test_case "tiebreak" `Quick test_carstamp_tiebreak;
        QCheck_alcotest.to_alcotest prop_carstamp_total_order;
      ] );
    ( "gryff.registers",
      [
        Alcotest.test_case "write then read" `Quick test_write_then_read;
        Alcotest.test_case "read empty" `Quick test_read_empty;
        Alcotest.test_case "read latency = quorum rtt" `Quick
          test_read_latency_is_quorum_rtt;
        Alcotest.test_case "latency geometry, all sites" `Quick
          test_read_latency_geometry_all_sites;
        Alcotest.test_case "lin: 2 rounds under conflict" `Quick
          test_lin_read_two_rounds_under_conflict;
        Alcotest.test_case "rsc: 1 round under conflict" `Quick
          test_rsc_read_one_round_under_conflict;
        Alcotest.test_case "rsc: dep lifecycle" `Quick test_rsc_dep_created_and_cleared;
        Alcotest.test_case "rsc: session monotone" `Quick test_rsc_session_reads_monotone;
        Alcotest.test_case "minor words per op" `Quick test_allocation_per_op;
      ] );
    ( "gryff.rmw",
      [
        Alcotest.test_case "basic increments" `Quick test_rmw_basic;
        Alcotest.test_case "rmw after write" `Quick test_rmw_after_write;
        Alcotest.test_case "visible once complete" `Quick test_rmw_visible_once_complete;
        Alcotest.test_case "concurrent atomic" `Slow test_rmw_concurrent_atomic;
        Alcotest.test_case "interference slow path" `Slow
          test_rmw_interference_uses_slow_path;
      ] );
    ( "gryff.causality",
      [
        Alcotest.test_case "fence makes dep visible" `Quick test_fence_makes_dep_visible;
        Alcotest.test_case "absorb deps cross client" `Quick
          test_absorb_deps_cross_client;
      ] );
    ( "gryff.failures",
      [
        Alcotest.test_case "tolerates 2 crashes" `Quick
          test_tolerates_two_replica_crashes;
        Alcotest.test_case "stalls beyond quorum loss" `Quick
          test_stalls_beyond_quorum_loss;
        Alcotest.test_case "recovery after restart" `Quick
          test_recovery_after_restart;
      ] );
    ( "gryff.e2e",
      [
        Alcotest.test_case "rsc run witness" `Slow test_random_run_rsc_witness;
        Alcotest.test_case "lin run witness" `Slow test_random_run_lin_witness;
        Alcotest.test_case "small run full RSC search" `Slow
          test_small_run_full_rsc_search;
        Alcotest.test_case "determinism" `Slow test_determinism;
      ] );
  ]
