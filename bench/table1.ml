(* Table 1: which invariants hold and which anomalies occur per consistency
   model, measured by running the photo-sharing application over
   strict-serializable Spanner, Spanner-RSS, and the PO-serializable store. *)

let verdict ~violations ~checks ~always_label =
  if checks = 0 then "(no checks)"
  else if violations = 0 then always_label
  else Fmt.str "%d/%d" violations checks

let run ?(rounds = 50) ?(seeds = [ 31; 32; 33; 34; 35; 36; 37; 38 ]) () =
  Fmt.pr "=== Table 1: invariants and anomalies of the photo-sharing app ===@.";
  Fmt.pr "(measured over %d seeds x %d rounds per store; cells are violations/checks)@.@."
    (List.length seeds) rounds;
  let rows = List.map (Photoapp.App.run_store ~rounds ~seeds) [ `Strict; `Rss; `Po ] in
  Fmt.pr "  %-18s | %10s %10s | %12s %14s@." "consistency" "I1" "I2" "A2" "A3";
  List.iter
    (fun (name, t) ->
      Fmt.pr "  %-18s | %10s %10s | %12s %14s@." name
        (verdict ~violations:t.Photoapp.App.i1_violations
           ~checks:t.Photoapp.App.i1_checks ~always_label:"holds")
        (verdict ~violations:t.Photoapp.App.i2_violations
           ~checks:t.Photoapp.App.i2_checks ~always_label:"holds")
        (verdict ~violations:t.Photoapp.App.a2_anomalies
           ~checks:t.Photoapp.App.a2_trials ~always_label:"never")
        (verdict ~violations:t.Photoapp.App.a3_anomalies
           ~checks:t.Photoapp.App.a3_trials ~always_label:"never"))
    rows;
  List.iter
    (fun (name, t) ->
      if t.Photoapp.App.a3_anomalies > 0 then
        Fmt.pr "@.  %s: mean A3 window %.1f ms ('temporarily' quantified)" name
          (float_of_int t.Photoapp.App.a3_window_us
          /. float_of_int t.Photoapp.App.a3_anomalies /. 1000.0))
    rows;
  Fmt.pr "@.@.(paper's Table 1: strict = all hold/never; RSS = invariants hold, A3@.";
  Fmt.pr " 'temporarily'; PO-serializable = I2 broken, A2/A3 always possible)@.@."
