(* Observability layer tests: the span tracer's determinism and passivity
   contracts, parent links across network hops and RPC retransmissions,
   the metrics registry, engine profiling, and the export formats (Chrome
   trace_event JSON, compact binary log) — ending with the PR's acceptance
   criterion: a traced Spanner-RSS WAN run whose RO spans decompose into
   per-shard network-hop children consistent with the client latency. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Tracer core                                                         *)
(* ------------------------------------------------------------------ *)

let test_disabled_sink () =
  let tr = Obs.Trace.disabled in
  check bool "disabled" false (Obs.Trace.enabled tr);
  let sp = Obs.Trace.begin_span tr ~kind:Obs.Trace.Mark ~name:"x" ~ts:0 in
  check int "begin_span returns none" Obs.Trace.none sp;
  Obs.Trace.end_span tr sp ~ts:1;
  Obs.Trace.instant tr ~name:"y" ~ts:2;
  check int "nothing recorded" 0 (Obs.Trace.n_spans tr);
  let ran = ref false in
  Obs.Trace.with_current tr 42 (fun () -> ran := true);
  check bool "with_current still runs the thunk" true !ran;
  check int "current stays none" Obs.Trace.none (Obs.Trace.current tr)

let test_span_tree () =
  let tr = Obs.Trace.create () in
  let root = Obs.Trace.begin_span tr ~kind:Obs.Trace.Client_op ~name:"op" ~ts:10 in
  check int "ids start at 1" 1 root;
  let child =
    Obs.Trace.with_current tr root (fun () ->
        Obs.Trace.begin_span tr ~kind:Obs.Trace.Net_hop ~site:2 ~name:"hop" ~ts:20)
  in
  Obs.Trace.instant ~parent:child tr ~kind:Obs.Trace.Fault ~name:"mark" ~ts:25;
  Obs.Trace.end_span tr child ~ts:30;
  Obs.Trace.end_span tr root ~ts:40;
  let spans = Obs.Trace.spans tr in
  check int "three records" 3 (Array.length spans);
  let s1 = spans.(0) and s2 = spans.(1) and s3 = spans.(2) in
  check int "root has no parent" 0 s1.Obs.Trace.parent;
  check int "ambient parent link" root s2.Obs.Trace.parent;
  check int "explicit parent link" child s3.Obs.Trace.parent;
  check int "site recorded" 2 s2.Obs.Trace.site;
  check bool "instant flagged" true s3.Obs.Trace.is_instant;
  check int "durations" 20 (s2.Obs.Trace.end_ts - s2.Obs.Trace.start_ts + 10)

let test_binary_round_trip () =
  let tr = Obs.Trace.create () in
  let a = Obs.Trace.begin_span tr ~kind:Obs.Trace.Phase ~site:1 ~name:"2pc.prepare" ~ts:5 in
  Obs.Trace.instant ~parent:a tr ~name:"rpc.retry" ~ts:7;
  Obs.Trace.end_span tr a ~ts:12;
  ignore (Obs.Trace.begin_span tr ~kind:Obs.Trace.View_change ~name:"vc" ~ts:9);
  let path = Filename.temp_file "obs" ".bin" in
  Obs.Trace.save_binary tr ~path;
  (match Obs.Trace.load_binary ~path with
  | Error m -> Alcotest.failf "load_binary: %s" m
  | Ok infos ->
    check int "span count survives" (Obs.Trace.n_spans tr) (Array.length infos);
    check bool "records identical" true (infos = Obs.Trace.spans tr));
  Sys.remove path

let test_binary_rejects_garbage () =
  let path = Filename.temp_file "obs" ".bin" in
  let oc = open_out_bin path in
  output_string oc "not a span log";
  close_out oc;
  (match Obs.Trace.load_binary ~path with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  Sys.remove path

let test_chrome_json_parses () =
  let tr = Obs.Trace.create () in
  let a = Obs.Trace.begin_span tr ~kind:Obs.Trace.Client_op ~site:0 ~name:"op" ~ts:0 in
  Obs.Trace.with_current tr a (fun () ->
      let h = Obs.Trace.begin_span tr ~kind:Obs.Trace.Net_hop ~site:1 ~name:"net 0->1" ~ts:3 in
      Obs.Trace.end_span tr h ~ts:9);
  Obs.Trace.end_span tr a ~ts:11;
  Obs.Trace.instant tr ~name:"note \"quoted\"\n" ~ts:12;
  let json = Obs.Trace.to_chrome_json tr in
  match Obs.Json.parse json with
  | Error m -> Alcotest.failf "export does not parse: %s" m
  | Ok doc ->
    let events = Option.get (Obs.Json.to_arr doc) in
    check int "one event per span" 3 (List.length events);
    let names =
      List.filter_map
        (fun e -> Option.bind (Obs.Json.member "name" e) Obs.Json.to_str)
        events
    in
    check bool "escaped name survives" true (List.mem "note \"quoted\"\n" names);
    let hop =
      List.find
        (fun e -> Obs.Json.member "name" e |> Option.get |> Obs.Json.to_str
                  = Some "net 0->1")
        events
    in
    let num field e =
      Option.bind (Obs.Json.member field e) Obs.Json.to_num |> Option.get
    in
    check bool "ph is X" true
      (Obs.Json.member "ph" hop |> Option.get |> Obs.Json.to_str = Some "X");
    check int "ts in us" 3 (int_of_float (num "ts" hop));
    check int "dur in us" 6 (int_of_float (num "dur" hop));
    check int "tid is site" 1 (int_of_float (num "tid" hop));
    let args = Obs.Json.member "args" hop |> Option.get in
    check int "parent id exported" a
      (int_of_float (num "parent" args))

(* ------------------------------------------------------------------ *)
(* Parent links across the network and RPC retransmission              *)
(* ------------------------------------------------------------------ *)

let test_hop_parents_span_sends () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 1 in
  let net =
    Sim.Net.create engine ~rng ~rtt_ms:[| [| 1.0; 10.0 |]; [| 10.0; 1.0 |] |] ()
  in
  let tr = Obs.Trace.create () in
  Sim.Net.set_tracer net tr;
  let op = Obs.Trace.begin_span tr ~kind:Obs.Trace.Client_op ~name:"op" ~ts:0 in
  Obs.Trace.with_current tr op (fun () ->
      Sim.Net.send net ~src:0 ~dst:1 (fun () ->
          (* Reply sent from inside the delivery handler: its hop must
             parent to the request hop that carried us here. *)
          Sim.Net.send net ~src:1 ~dst:0 (fun () -> ())));
  Sim.Engine.run engine;
  Obs.Trace.end_span tr op ~ts:(Sim.Engine.now engine);
  let spans = Obs.Trace.spans tr in
  let hops =
    Array.to_list spans
    |> List.filter (fun s -> s.Obs.Trace.kind = Obs.Trace.Net_hop)
  in
  check int "two hops" 2 (List.length hops);
  let req = List.nth hops 0 and rep = List.nth hops 1 in
  check int "request hop parents to the op" op req.Obs.Trace.parent;
  check int "reply hop parents to the request hop" req.Obs.Trace.id
    rep.Obs.Trace.parent;
  check int "hop tagged with destination site" 1 req.Obs.Trace.site

let test_rpc_retransmission_keeps_parent () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make 7 in
  let net =
    Sim.Net.create engine ~rng ~rtt_ms:[| [| 1.0; 10.0 |]; [| 10.0; 1.0 |] |] ()
  in
  let tr = Obs.Trace.create () in
  Sim.Net.set_tracer net tr;
  let rpc = Sim.Rpc.create engine ~rng ~timeout_us:50_000 ~max_attempts:5 () in
  Sim.Rpc.set_tracer rpc tr;
  (* First attempts vanish into a severed link; the link heals while the
     backoff timer is pending, so a retransmission — fired from the timer,
     where no ambient span exists — completes the call. *)
  Sim.Net.block_link net ~src:0 ~dst:1;
  Sim.Engine.schedule engine ~after:60_000 (fun () ->
      Sim.Net.unblock_link net ~src:0 ~dst:1);
  let got = ref None in
  Sim.Rpc.call ~name:"rpc.test" rpc
    ~attempt:(fun ~attempt:_ ~ok ->
      Sim.Net.send net ~src:0 ~dst:1 (fun () ->
          Sim.Net.send net ~src:1 ~dst:0 (fun () -> ok ())))
    ~on_result:(fun r -> got := r);
  Sim.Engine.run engine;
  check bool "retransmission succeeded" true (!got = Some ());
  check bool "at least one retry" true (Sim.Rpc.retries rpc >= 1);
  let spans = Array.to_list (Obs.Trace.spans tr) in
  let call_sp =
    List.find (fun s -> s.Obs.Trace.name = "rpc.test") spans
  in
  check bool "call span closed" true (call_sp.Obs.Trace.end_ts >= 60_000);
  let retry_marks =
    List.filter (fun s -> s.Obs.Trace.name = "rpc.retry") spans
  in
  check bool "retry instants recorded" true (retry_marks <> []);
  List.iter
    (fun s ->
      check int "retry parents to the call span" call_sp.Obs.Trace.id
        s.Obs.Trace.parent)
    retry_marks;
  (* The hop that finally carried the request left after the heal; its
     ancestry must still reach the rpc call span. *)
  let parent_of =
    let tbl = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.add tbl s.Obs.Trace.id s.Obs.Trace.parent) spans;
    fun id -> Option.value (Hashtbl.find_opt tbl id) ~default:0
  in
  let rec reaches id target =
    id <> 0 && (id = target || reaches (parent_of id) target)
  in
  let late_hops =
    List.filter
      (fun s ->
        s.Obs.Trace.kind = Obs.Trace.Net_hop
        && (not s.Obs.Trace.is_instant)
        && s.Obs.Trace.start_ts >= 60_000)
      spans
  in
  check bool "a post-heal hop exists" true (late_hops <> []);
  List.iter
    (fun h ->
      check bool "post-heal hop links back to the rpc call" true
        (reaches h.Obs.Trace.parent call_sp.Obs.Trace.id))
    late_hops

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "ops" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check int "counter accumulates" 5 (Obs.Metrics.value c);
  check bool "get-or-create aliases" true (Obs.Metrics.counter reg "ops" == c);
  let lc = Obs.Metrics.counter reg ~labels:[ ("site", "va") ] "ops" in
  Obs.Metrics.incr lc;
  Obs.Metrics.set_gauge reg "tps" 10.0;
  Obs.Metrics.max_gauge reg "peak" 3.0;
  Obs.Metrics.max_gauge reg "peak" 2.0;
  let h = Obs.Metrics.histogram reg "lat" in
  Stats.Recorder.add h 1000;
  let s = Obs.Metrics.snapshot reg in
  check int "label is part of identity" 1
    (Obs.Metrics.counter_value s "ops{site=va}");
  check int "plain name untouched" 5 (Obs.Metrics.counter_value s "ops");
  check int "absent counter is 0" 0 (Obs.Metrics.counter_value s "nope");
  check (Alcotest.float 0.0) "gauge" 10.0 (Obs.Metrics.gauge_value s "tps");
  check (Alcotest.float 0.0) "max gauge keeps max" 3.0
    (Obs.Metrics.gauge_value s "peak");
  check bool "absent gauge is nan" true
    (Float.is_nan (Obs.Metrics.gauge_value s "nope"));
  check bool "histogram registered" true
    (Obs.Metrics.histogram_of s "lat" <> None);
  check bool "counters sorted" true
    (let names = List.map fst s.Obs.Metrics.counters in
     names = List.sort compare names)

let test_print_table_empty_histogram () =
  (* Regression for the satellite fix: empty recorders in summary paths
     must print n/a, not raise Invalid_argument from Recorder.min. *)
  let reg = Obs.Metrics.create () in
  ignore (Obs.Metrics.histogram reg "empty");
  Obs.Metrics.set_gauge reg "p50_ms" Float.nan;
  Obs.Metrics.print_table ~header:"empty-run" (Obs.Metrics.snapshot reg);
  let r = Stats.Recorder.create () in
  check bool "min_opt on empty" true (Stats.Recorder.min_opt r = None);
  check bool "max_opt on empty" true (Stats.Recorder.max_opt r = None);
  check bool "percentile_opt on empty" true
    (Stats.Recorder.percentile_opt r 99.0 = None);
  check bool "percentile_ms_opt on empty" true
    (Stats.Recorder.percentile_ms_opt r 50.0 = None);
  Stats.Recorder.add r 2000;
  check bool "present once non-empty" true
    (Stats.Recorder.percentile_ms_opt r 50.0 = Some 2.0)

(* ------------------------------------------------------------------ *)
(* Engine profiling                                                    *)
(* ------------------------------------------------------------------ *)

let test_engine_profiling () =
  let engine = Sim.Engine.create () in
  check bool "off by default" false (Sim.Engine.profiling_enabled engine);
  Sim.Engine.enable_profiling ~sample_queue_every:1 engine;
  check bool "on after enable" true (Sim.Engine.profiling_enabled engine);
  for i = 1 to 10 do
    Sim.Engine.schedule ~kind:"tick" engine ~after:i (fun () -> ())
  done;
  Sim.Engine.schedule engine ~after:20 (fun () -> ());
  Sim.Engine.run engine;
  let rows = Sim.Engine.profile engine in
  let events_of k =
    match List.find_opt (fun (kind, _, _) -> kind = k) rows with
    | Some (_, n, _) -> n
    | None -> 0
  in
  check int "ticks attributed" 10 (events_of "tick");
  check int "unlabelled events fall into other" 1 (events_of "other");
  check int "rows account for every event" (Sim.Engine.executed engine)
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 rows);
  check bool "queue depth sampled" true
    (Stats.Recorder.count (Sim.Engine.queue_depths engine) > 0)

let test_profiling_is_passive () =
  let run profiled =
    let engine = Sim.Engine.create () in
    if profiled then Sim.Engine.enable_profiling engine;
    let rng = Sim.Rng.make 3 in
    let order = ref [] in
    let rec chain n =
      if n < 50 then
        Sim.Engine.schedule ~kind:"chain" engine
          ~after:(1 + Sim.Rng.int rng 100)
          (fun () ->
            order := n :: !order;
            chain (n + 1))
    in
    chain 0;
    Sim.Engine.run engine;
    (Sim.Engine.now engine, Sim.Engine.executed engine, !order)
  in
  check bool "profiled run follows the identical schedule" true
    (run true = run false)

(* ------------------------------------------------------------------ *)
(* Traced harness runs: determinism, passivity, acceptance criterion   *)
(* ------------------------------------------------------------------ *)

let spanner_run ?(trace = Obs.Trace.disabled) () =
  Harness.spanner_wan
    ~env:(Harness.Env.with_trace trace Harness.Env.default)
    ~mode:Spanner.Config.Rss ~theta:0.75 ~n_keys:5_000
    ~arrival_rate_per_sec:30.0 ~duration_s:3.0 ~seed:11 ()

let test_metrics_deterministic_across_seeds () =
  let a = spanner_run () and b = spanner_run () in
  check bool "metric snapshots identical for identical seeds" true
    (a.Harness.Run.metrics.Obs.Metrics.counters
    = b.Harness.Run.metrics.Obs.Metrics.counters);
  check int "same completed count" (Harness.Run.completed a)
    (Harness.Run.completed b);
  check int "same drain time" a.Harness.Run.duration_us b.Harness.Run.duration_us

let test_traced_run_is_passive () =
  let plain = spanner_run () in
  let tr = Obs.Trace.create () in
  let traced = spanner_run ~trace:tr () in
  check bool "spans were recorded" true (Obs.Trace.n_spans tr > 0);
  check bool "identical history" true
    (plain.Harness.Run.records = traced.Harness.Run.records);
  check bool "identical metrics" true
    (plain.Harness.Run.metrics.Obs.Metrics.counters
    = traced.Harness.Run.metrics.Obs.Metrics.counters);
  check int "identical drain time" plain.Harness.Run.duration_us
    traced.Harness.Run.duration_us;
  (* And a second traced run assigns the same span ids in the same order. *)
  let tr2 = Obs.Trace.create () in
  ignore (spanner_run ~trace:tr2 ());
  check bool "span streams identical" true
    (Obs.Trace.spans tr = Obs.Trace.spans tr2)

let test_ro_span_decomposes_into_hops () =
  let tr = Obs.Trace.create () in
  let r = spanner_run ~trace:tr () in
  check bool "run verified" true (Harness.Run.passed r);
  let spans = Obs.Trace.spans tr in
  let children = Hashtbl.create 256 in
  Array.iter
    (fun s -> Hashtbl.add children s.Obs.Trace.parent s)
    spans;
  let rec hop_descendants acc id =
    List.fold_left
      (fun acc s ->
        let acc =
          if s.Obs.Trace.kind = Obs.Trace.Net_hop && not s.Obs.Trace.is_instant
          then s :: acc
          else acc
        in
        hop_descendants acc s.Obs.Trace.id)
      acc
      (Hashtbl.find_all children id)
  in
  let ros =
    Array.to_list spans
    |> List.filter (fun s ->
           s.Obs.Trace.name = "spanner.ro" && s.Obs.Trace.end_ts >= 0)
  in
  check bool "closed RO spans exist" true (ros <> []);
  let decomposed = ref 0 and explained = ref 0 in
  List.iter
    (fun ro ->
      let hops = hop_descendants [] ro.Obs.Trace.id in
      if List.length hops >= 2 then begin
        incr decomposed;
        let latency = ro.Obs.Trace.end_ts - ro.Obs.Trace.start_ts in
        let sum =
          List.fold_left
            (fun acc h -> acc + (h.Obs.Trace.end_ts - h.Obs.Trace.start_ts))
            0 hops
        in
        (* Hops to different shards overlap, so for a fast-path RO their
           summed durations cover the client-observed latency.  ROs that
           block at a shard behind a prepared transaction spend extra
           non-network time, so coverage is only demanded of some RO, but
           no hop may ever leave its operation's window. *)
        if 10 * sum >= 9 * latency then incr explained;
        List.iter
          (fun h ->
            check bool "hop within the op window" true
              (h.Obs.Trace.start_ts >= ro.Obs.Trace.start_ts
              && h.Obs.Trace.end_ts <= ro.Obs.Trace.end_ts))
          hops
      end)
    ros;
  check bool "at least one RO decomposes into per-shard hops" true
    (!decomposed > 0);
  check bool "hop durations cover the client latency for fast-path ROs" true
    (!explained > 0)

let test_gryff_traced_wan () =
  let tr = Obs.Trace.create () in
  let r =
    Harness.gryff_wan
      ~env:(Harness.Env.with_trace tr Harness.Env.default)
      ~n_clients:4 ~mode:Gryff.Config.Rsc
      ~conflict:0.1 ~write_ratio:0.3 ~n_keys:2_000 ~duration_s:2.0 ~seed:5 ()
  in
  check bool "run verified" true (Harness.Run.passed r);
  let spans = Array.to_list (Obs.Trace.spans tr) in
  let by_name n = List.filter (fun s -> s.Obs.Trace.name = n) spans in
  check bool "client read spans" true (by_name "gryff.read" <> []);
  check bool "client write spans" true (by_name "gryff.write" <> []);
  check bool "hop spans" true
    (List.exists (fun s -> s.Obs.Trace.kind = Obs.Trace.Net_hop) spans);
  (* Reads recorded in the metrics snapshot match the span stream. *)
  check bool "read spans at least the recorded reads" true
    (List.length (by_name "gryff.read") >= Harness.Run.counter r "read.count")

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "disabled sink is inert" `Quick test_disabled_sink;
        Alcotest.test_case "span tree and ambient parents" `Quick test_span_tree;
        Alcotest.test_case "binary log round-trips" `Quick test_binary_round_trip;
        Alcotest.test_case "binary load rejects garbage" `Quick
          test_binary_rejects_garbage;
        Alcotest.test_case "chrome export parses" `Quick test_chrome_json_parses;
        Alcotest.test_case "hop parents across sends" `Quick
          test_hop_parents_span_sends;
        Alcotest.test_case "parent links survive rpc retransmission" `Quick
          test_rpc_retransmission_keeps_parent;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "registry counters gauges histograms" `Quick
          test_metrics_registry;
        Alcotest.test_case "empty histograms print n/a" `Quick
          test_print_table_empty_histogram;
      ] );
    ( "obs.engine",
      [
        Alcotest.test_case "per-kind profile and queue depths" `Quick
          test_engine_profiling;
        Alcotest.test_case "profiling is passive" `Quick test_profiling_is_passive;
      ] );
    ( "obs.harness",
      [
        Alcotest.test_case "metrics deterministic across identical seeds" `Slow
          test_metrics_deterministic_across_seeds;
        Alcotest.test_case "tracing is passive" `Slow test_traced_run_is_passive;
        Alcotest.test_case "RO span decomposes into per-shard hops" `Slow
          test_ro_span_decomposes_into_hops;
        Alcotest.test_case "gryff traced wan run" `Slow test_gryff_traced_wan;
      ] );
  ]
