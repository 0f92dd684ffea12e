(* Benchmark harness entry point. Each target regenerates one of the
   paper's tables or figures (see DESIGN.md's experiment index); the default
   runs everything at the standard sizes. `--quick` shrinks the runs for a
   fast smoke pass. *)

let usage () =
  Fmt.pr
    "usage: bench/main.exe [--quick] [target...]@.targets: table1 fig5 fig6 fig7 \
     fig7tail gryff-overhead ablation all (default: all)@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let targets = List.filter (fun a -> a <> "--quick") args in
  let targets = if targets = [] then [ "all" ] else targets in
  let want t = List.mem t targets || List.mem "all" targets in
  if List.mem "--help" targets || List.mem "-h" targets then usage ()
  else begin
    Fmt.pr
      "RSS/RSC reproduction benchmarks%s — shapes, not absolute numbers, are the target@.@."
      (if quick then " (quick mode)" else "");
    if want "table1" then
      if quick then Table1.run ~rounds:20 ~seeds:[ 31; 32 ] () else Table1.run ();
    if want "fig5" then
      if quick then Fig5.run ~duration_s:30.0 () else Fig5.run ();
    if want "fig6" then
      if quick then Fig6.run ~duration_s:4.0 ~client_counts:[ 16; 64; 256 ] ()
      else Fig6.run ();
    if want "fig7" then
      if quick then Fig7.run ~duration_s:40.0 ~write_ratios:[ 0.1; 0.3; 0.5 ] ()
      else Fig7.run ();
    if want "fig7tail" then
      if quick then Fig7.run_tail ~duration_s:120.0 () else Fig7.run_tail ();
    if want "gryff-overhead" then
      if quick then Gryff_overhead.run ~duration_s:4.0 ~client_counts:[ 16; 128 ] ()
      else Gryff_overhead.run ();
    if want "ablation" then
      if quick then begin
        Fmt.pr "=== Ablations (quick) ===@.@.";
        Ablation.tee_slack ~duration_s:20.0 ();
        Ablation.epsilon_sweep ~duration_s:20.0 ();
        Ablation.tmin_scope ~duration_s:20.0 ()
      end
      else Ablation.run ()
  end
