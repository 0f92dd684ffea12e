(* Tests for the PO-serializable store and the photo-sharing application —
   the machinery behind Table 1. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* PO store                                                            *)
(* ------------------------------------------------------------------ *)

let mk_po ?(seed = 1) ?(max_staleness_us = 100_000) () =
  let engine = Sim.Engine.create () in
  let store =
    Postore.Store.create engine ~rng:(Sim.Rng.make seed) ~max_staleness_us ()
  in
  (engine, store)

let test_po_rw_ro () =
  let engine, store = mk_po () in
  let s = Postore.Store.session store in
  let got = ref None in
  Postore.Store.rw s ~reads:[] ~writes:[ ("x", 1) ] (fun _ ->
      Postore.Store.ro s ~keys:[ "x" ] (fun vs -> got := Some vs));
  Sim.Engine.run engine;
  check bool "session reads own write" true (!got = Some [ ("x", Some 1) ])

let test_po_rw_reads_latest () =
  let engine, store = mk_po () in
  let s1 = Postore.Store.session store in
  let s2 = Postore.Store.session store in
  let got = ref None in
  Postore.Store.rw s1 ~reads:[] ~writes:[ ("x", 1) ] (fun _ ->
      Postore.Store.rw s2 ~reads:[ "x" ] ~writes:[ ("y", 2) ] (fun vs ->
          got := Some vs));
  Sim.Engine.run engine;
  check bool "rw reads serialize at head" true (!got = Some [ ("x", Some 1) ])

let test_po_stale_reads_happen () =
  (* A fresh session's read may lag a completed write from another session —
     the defining weakness. With 100 ms staleness and reads 10 ms after the
     write, most trials are stale. *)
  let stale = ref 0 and trials = 30 in
  for seed = 1 to trials do
    let engine, store = mk_po ~seed () in
    let writer = Postore.Store.session store in
    Postore.Store.rw writer ~reads:[] ~writes:[ ("x", 1) ] (fun _ ->
        let reader = Postore.Store.session store in
        Sim.Engine.schedule engine ~after:10_000 (fun () ->
            Postore.Store.ro reader ~keys:[ "x" ] (fun vs ->
                if vs = [ ("x", None) ] then incr stale)));
    Sim.Engine.run engine
  done;
  check bool "stale reads observed" true (!stale > trials / 3)

let test_po_session_monotone () =
  let engine, store = mk_po ~seed:3 () in
  let writer = Postore.Store.session store in
  let reader = Postore.Store.session store in
  let values = ref [] in
  let rec writes n k =
    if n = 0 then k ()
    else Postore.Store.rw writer ~reads:[] ~writes:[ ("x", n) ] (fun _ -> writes (n - 1) k)
  in
  let rec reads n =
    if n > 0 then
      Postore.Store.ro reader ~keys:[ "x" ] (fun vs ->
          values := vs :: !values;
          reads (n - 1))
  in
  writes 10 (fun () -> ());
  reads 20;
  Sim.Engine.run engine;
  (* The writer writes 10,9,...,1: log order is descending values. The
     reader's observed log positions must be monotone, so once it sees value
     v (written at position 10 - v), later reads see v or smaller. *)
  let positions =
    List.rev_map
      (fun vs -> match vs with [ (_, Some v) ] -> 10 - v | _ -> -1)
      !values
  in
  let rec monotone prev = function
    | [] -> true
    | p :: rest -> p >= prev && monotone p rest
  in
  check bool "prefix only advances" true (monotone (-1) positions)

let test_po_fails_stronger_witness () =
  (* Force a manifestly stale read, then confirm the RSS check flags the
     PO store's history (calibrating that the checkers catch what PO
     serializability permits). *)
  let found = ref false in
  let seed = ref 1 in
  while (not !found) && !seed < 40 do
    let engine, store = mk_po ~seed:!seed () in
    let writer = Postore.Store.session store in
    let stale_seen = ref false in
    Postore.Store.rw writer ~reads:[] ~writes:[ ("x", 1) ] (fun _ ->
        let reader = Postore.Store.session store in
        Sim.Engine.schedule engine ~after:10_000 (fun () ->
            Postore.Store.ro reader ~keys:[ "x" ] (fun vs ->
                if vs = [ ("x", None) ] then stale_seen := true)));
    Sim.Engine.run engine;
    if !stale_seen then begin
      found := true;
      (match Postore.Store.check_history store with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("PO witness should accept: " ^ m));
      match Rss_core.Check_graph.check ~mode:`Rss (Postore.Store.records store) with
      | Ok _ -> Alcotest.fail "RSS check accepted a stale read"
      | Error _ -> ()
    end;
    incr seed
  done;
  check bool "found a stale run to test" true !found

let test_po_witness_sequential () =
  let engine, store = mk_po ~seed:5 () in
  let sessions = Array.init 4 (fun _ -> Postore.Store.session store) in
  for i = 0 to 3 do
    let s = sessions.(i) in
    let rec loop n =
      if n > 0 then
        if n mod 2 = 0 then
          Postore.Store.rw s ~reads:[ "a" ] ~writes:[ ("b", (i * 100) + n) ] (fun _ ->
              loop (n - 1))
        else Postore.Store.ro s ~keys:[ "a"; "b" ] (fun _ -> loop (n - 1))
    in
    loop 10
  done;
  Sim.Engine.run engine;
  (match Postore.Store.check_history store with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("po witness: " ^ m));
  (* And the same history generally fails the strict real-time check. *)
  let records = Postore.Store.records store in
  check bool "history non-trivial" true (Array.length records = 40)

(* ------------------------------------------------------------------ *)
(* OSC(U) registers (Appendix A.2)                                     *)
(* ------------------------------------------------------------------ *)

let osc_register_run ~seed ~n_ops =
  let engine = Sim.Engine.create () in
  let regs = Postore.Registers.create engine ~rng:(Sim.Rng.make seed) () in
  let wl = Sim.Rng.make (seed * 31) in
  let sessions = Array.init 3 (fun _ -> Postore.Registers.session regs) in
  let next_val = ref 0 in
  Array.iter
    (fun s ->
      let rec loop n =
        if n > 0 then
          let key = [| "x"; "y" |].(Sim.Rng.int wl 2) in
          if Sim.Rng.bool wl 0.5 then begin
            incr next_val;
            Postore.Registers.write s ~key ~value:!next_val (fun () -> loop (n - 1))
          end
          else Postore.Registers.read s ~key (fun _ -> loop (n - 1))
      in
      loop n_ops)
    sessions;
  Sim.Engine.run engine;
  Postore.Registers.history regs

let test_osc_registers_satisfy_oscu () =
  for seed = 1 to 10 do
    let h = osc_register_run ~seed ~n_ops:5 in
    check bool
      (Fmt.str "seed %d satisfies OSC(U)" seed)
      true
      (Rss_core.Check_txn.satisfies ~max_states:5_000_000 h Rss_core.Check_txn.Osc_u
      = Some true);
    check bool
      (Fmt.str "seed %d satisfies sequential" seed)
      true
      (Rss_core.Check_txn.satisfies ~max_states:5_000_000 h
         Rss_core.Check_txn.Process_ordered
      = Some true)
  done

let test_osc_registers_not_rsc () =
  (* Fig. 13's split, live: some run with a stale read violates RSC while
     still satisfying OSC(U). *)
  let found = ref false in
  let seed = ref 1 in
  while (not !found) && !seed <= 40 do
    let h = osc_register_run ~seed:!seed ~n_ops:5 in
    if
      Rss_core.Check_txn.satisfies ~max_states:5_000_000 h Rss_core.Check_txn.Rss
      = Some false
    then begin
      found := true;
      check bool "the same run satisfies OSC(U)" true
        (Rss_core.Check_txn.satisfies ~max_states:5_000_000 h
           Rss_core.Check_txn.Osc_u
        = Some true)
    end;
    incr seed
  done;
  check bool "an RSC-violating OSC(U) run exists" true !found

(* ------------------------------------------------------------------ *)
(* Photo app over the three stores                                     *)
(* ------------------------------------------------------------------ *)

let run_app ~store_kind ~causality ~seed ~rounds =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let store =
    match store_kind with
    | `Strict ->
      Photoapp.App.spanner_store
        (Spanner.Cluster.create engine ~rng:(Sim.Rng.split rng)
           (Spanner.Config.wan3 ~mode:Spanner.Config.Strict ()))
    | `Rss ->
      Photoapp.App.spanner_store
        (Spanner.Cluster.create engine ~rng:(Sim.Rng.split rng)
           (Spanner.Config.wan3 ~mode:Spanner.Config.Rss ()))
    | `Po ->
      Photoapp.App.po_store
        (Postore.Store.create engine ~rng:(Sim.Rng.split rng) ())
  in
  let tally =
    Photoapp.App.run_scenarios engine ~rng ~store ~causality ~users:4 ~rounds
      ~queue_rtt_us:2_000 ~call_latency_us:1_000
  in
  Sim.Engine.run ~max_events:50_000_000 engine;
  tally

let test_app_strict_no_anomalies () =
  let t =
    run_app ~store_kind:`Strict ~causality:Photoapp.App.No_causality ~seed:42
      ~rounds:60
  in
  check bool "did work" true (t.Photoapp.App.adds > 20);
  check int "I1 holds" 0 t.Photoapp.App.i1_violations;
  check int "I2 holds" 0 t.Photoapp.App.i2_violations;
  check int "no A2" 0 t.Photoapp.App.a2_anomalies;
  check int "no A3" 0 t.Photoapp.App.a3_anomalies

let test_app_rss_invariants_hold () =
  let t =
    run_app ~store_kind:`Rss ~causality:Photoapp.App.No_causality ~seed:43
      ~rounds:60
  in
  check bool "did work" true (t.Photoapp.App.adds > 20);
  check int "I1 holds" 0 t.Photoapp.App.i1_violations;
  check int "I2 holds" 0 t.Photoapp.App.i2_violations;
  check int "no A2" 0 t.Photoapp.App.a2_anomalies

let test_app_rss_a3_possible () =
  (* The A3 anomaly is a narrow window; accumulate across seeds. It must be
     observable (the whole point of the model) — and absent under strict. *)
  let rss_anomalies = ref 0 and trials = ref 0 in
  for seed = 100 to 110 do
    let t =
      run_app ~store_kind:`Rss ~causality:Photoapp.App.No_causality ~seed
        ~rounds:40
    in
    rss_anomalies := !rss_anomalies + t.Photoapp.App.a3_anomalies;
    trials := !trials + t.Photoapp.App.a3_trials
  done;
  check bool "a3 trials ran" true (!trials > 20);
  check bool "rss exposes A3 at least once" true (!rss_anomalies > 0)

let test_app_po_breaks () =
  let i2 = ref 0 and a2 = ref 0 in
  for seed = 200 to 204 do
    let t =
      run_app ~store_kind:`Po ~causality:Photoapp.App.No_causality ~seed ~rounds:60
    in
    check int "I1 still holds (single service total order)" 0
      t.Photoapp.App.i1_violations;
    i2 := !i2 + t.Photoapp.App.i2_violations;
    a2 := !a2 + t.Photoapp.App.a2_anomalies
  done;
  check bool "I2 broken" true (!i2 > 0);
  check bool "A2 anomalies occur" true (!a2 > 0)

let test_app_rss_context_propagation_closes_a3 () =
  (* With §4.2 context propagation on the phone call we cannot intervene
     (calls carry no metadata by construction), but the queue path (I2') is
     covered: compare worker-side violations with and without context. Here
     we simply check context propagation never hurts. *)
  let t =
    run_app ~store_kind:`Rss ~causality:Photoapp.App.Context_propagation ~seed:44
      ~rounds:60
  in
  check int "I2 holds with context" 0 t.Photoapp.App.i2_violations;
  check int "I1 holds" 0 t.Photoapp.App.i1_violations

let test_app_rss_fences () =
  let t =
    run_app ~store_kind:`Rss ~causality:Photoapp.App.Fence_on_switch ~seed:45
      ~rounds:40
  in
  check int "I2 holds with fences" 0 t.Photoapp.App.i2_violations

(* §2.6: the non-transactional version of I2 — single-write add-photo over a
   register store. Linearizable (Gryff) and RSC (Gryff-RSC) registers keep
   it; a sequentially-consistent register store (the PO store restricted to
   single-key operations) does not. *)
let test_nontransactional_i2 () =
  (* Gryff, both modes: the worker's read follows the completed write in
     real time, so it must observe it. *)
  List.iter
    (fun mode ->
      let engine = Sim.Engine.create () in
      let cluster =
        Gryff.Cluster.create engine ~rng:(Sim.Rng.make 3) (Gryff.Config.wan5 ~mode ())
      in
      let uploader = Gryff.Client.create cluster ~site:0 in
      let worker = Gryff.Client.create cluster ~site:3 in
      let violations = ref 0 in
      let rec round n =
        if n > 0 then
          Gryff.Client.write uploader ~key:n ~value:(700 + n) (fun _ ->
              (* enqueue + dequeue: out-of-band handoff after completion *)
              Gryff.Client.read worker ~key:n (fun r ->
                  if r.Gryff.Protocol.r_value = None then incr violations;
                  round (n - 1)))
      in
      round 8;
      Sim.Engine.run engine;
      check int
        (match mode with
        | Gryff.Config.Lin -> "linearizable register keeps I2"
        | Gryff.Config.Rsc -> "RSC register keeps I2")
        0 !violations)
    [ Gryff.Config.Lin; Gryff.Config.Rsc ];
  (* Sequentially consistent registers: violations occur. *)
  let violations = ref 0 in
  for seed = 1 to 20 do
    let engine, store = mk_po ~seed () in
    let uploader = Postore.Store.session store in
    let worker = Postore.Store.session store in
    Postore.Store.rw uploader ~reads:[] ~writes:[ ("photo", 7) ] (fun _ ->
        Postore.Store.ro worker ~keys:[ "photo" ] (fun vs ->
            if vs = [ ("photo", None) ] then incr violations));
    Sim.Engine.run engine
  done;
  check bool "sequentially consistent registers break I2" true (!violations > 0)

let suites =
  [
    ( "postore",
      [
        Alcotest.test_case "rw then ro" `Quick test_po_rw_ro;
        Alcotest.test_case "rw reads latest" `Quick test_po_rw_reads_latest;
        Alcotest.test_case "stale reads happen" `Slow test_po_stale_reads_happen;
        Alcotest.test_case "session monotone" `Quick test_po_session_monotone;
        Alcotest.test_case "witness sequential" `Quick test_po_witness_sequential;
        Alcotest.test_case "stale run fails RSS witness" `Quick
          test_po_fails_stronger_witness;
        Alcotest.test_case "OSC(U) registers: model holds" `Slow
          test_osc_registers_satisfy_oscu;
        Alcotest.test_case "OSC(U) registers: not RSC (Fig. 13)" `Slow
          test_osc_registers_not_rsc;
      ] );
    ( "photoapp",
      [
        Alcotest.test_case "strict: nothing breaks" `Slow test_app_strict_no_anomalies;
        Alcotest.test_case "rss: invariants hold" `Slow test_app_rss_invariants_hold;
        Alcotest.test_case "rss: A3 observable" `Slow test_app_rss_a3_possible;
        Alcotest.test_case "po: I2 and A2 break" `Slow test_app_po_breaks;
        Alcotest.test_case "rss + context propagation" `Slow
          test_app_rss_context_propagation_closes_a3;
        Alcotest.test_case "rss + fences" `Slow test_app_rss_fences;
        Alcotest.test_case "non-transactional I2 (2.6)" `Quick
          test_nontransactional_i2;
      ] );
  ]
