(* Figure 7: Gryff vs Gryff-RSC p99 read latency across write ratios at
   three conflict percentages (2%, 10%, 25%), five regions, 16 closed-loop
   clients — plus the §7.3 deep-tail measurement. *)

let print_table2 () =
  let c = Gryff.Config.wan5 ~mode:Gryff.Config.Rsc () in
  Fmt.pr "Table 2 — emulated round-trip latencies (ms):@.";
  Fmt.pr "      ";
  for i = 0 to 4 do
    Fmt.pr "%7s" (Gryff.Config.site_name c i)
  done;
  Fmt.pr "@.";
  for i = 0 to 4 do
    Fmt.pr "  %4s" (Gryff.Config.site_name c i);
    for j = 0 to 4 do
      if j <= i then Fmt.pr "%7.1f" c.Gryff.Config.rtt_ms.(i).(j) else Fmt.pr "%7s" ""
    done;
    Fmt.pr "@."
  done;
  Fmt.pr "@."

let run ?(duration_s = 150.0) ?(n_keys = 100_000) ?(seed = 3)
    ?(write_ratios = [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ]) () =
  Fmt.pr "=== Figure 7: p99 read latency, YCSB, 5 replicas, 16 closed-loop clients ===@.@.";
  print_table2 ();
  List.iteri
    (fun i conflict ->
      let sub = [| "7a"; "7b"; "7c" |].(i) in
      Fmt.pr "Fig. %s — %.0f%% conflicts: p99 read latency (ms) by write ratio@." sub
        (conflict *. 100.0);
      Fmt.pr "  %11s | %10s %12s | %10s %12s | %11s@." "write ratio" "gryff"
        "slow reads" "gryff-rsc" "deferred wb" "p99 reduction";
      List.iter
        (fun write_ratio ->
          let lin =
            Harness.gryff_wan ~mode:Gryff.Config.Lin ~conflict ~write_ratio ~n_keys
              ~duration_s ~seed ()
          in
          let rsc =
            Harness.gryff_wan ~mode:Gryff.Config.Rsc ~conflict ~write_ratio ~n_keys
              ~duration_s ~seed ()
          in
          Harness.Run.report_check "gryff" lin.Harness.Run.check;
          Harness.Run.report_check "gryff-rsc" rsc.Harness.Run.check;
          let p99 r =
            match Stats.Recorder.percentile_ms_opt r 99.0 with
            | Some v -> v
            | None -> 0.0
          in
          let p_lin = p99 (Harness.Run.latency lin "read")
          and p_rsc = p99 (Harness.Run.latency rsc "read") in
          Fmt.pr "  %11.2f | %10.1f %12d | %10.1f %12d | %10.0f%%@." write_ratio
            p_lin
            (Harness.Run.counter lin "read.second_round")
            p_rsc
            (Harness.Run.counter rsc "read.deps_created")
            (Stats.Summary.improvement ~baseline:p_lin ~variant:p_rsc))
        write_ratios;
      Fmt.pr "@.")
    [ 0.02; 0.10; 0.25 ]

let run_tail ?(duration_s = 600.0) ?(n_keys = 100_000) ?(seed = 4) () =
  Fmt.pr "=== §7.3 deep tail: 10%% conflicts, 0.3 write ratio ===@.";
  let lin =
    Harness.gryff_wan ~mode:Gryff.Config.Lin ~conflict:0.10 ~write_ratio:0.3 ~n_keys
      ~duration_s ~seed ()
  in
  let rsc =
    Harness.gryff_wan ~mode:Gryff.Config.Rsc ~conflict:0.10 ~write_ratio:0.3 ~n_keys
      ~duration_s ~seed ()
  in
  Harness.Run.report_check "gryff" lin.Harness.Run.check;
  Harness.Run.report_check "gryff-rsc" rsc.Harness.Run.check;
  let read_lin = Harness.Run.latency lin "read"
  and read_rsc = Harness.Run.latency rsc "read" in
  Stats.Summary.print_latency_table ~header:"read latency (ms)"
    ~rows:[ ("gryff", read_lin); ("gryff-rsc", read_rsc) ]
    ~points:[ 50.0; 90.0; 99.0; 99.9 ] ();
  let p999 r =
    match Stats.Recorder.percentile_ms_opt r 99.9 with Some v -> v | None -> 0.0
  in
  Fmt.pr "  -> p99.9 reduction: %.0f%% (%.0f -> %.0f ms)@."
    (Stats.Summary.improvement ~baseline:(p999 read_lin) ~variant:(p999 read_rsc))
    (p999 read_lin) (p999 read_rsc);
  Stats.Summary.print_latency_table ~header:"write latency (ms) — identical by design"
    ~rows:
      [
        ("gryff", Harness.Run.latency lin "write");
        ("gryff-rsc", Harness.Run.latency rsc "write");
      ]
    ~points:[ 50.0; 99.0 ] ();
  Fmt.pr "@."
