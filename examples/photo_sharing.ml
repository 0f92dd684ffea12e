(* The paper's motivating photo-sharing application (§2.2) over three
   stores: strict-serializable Spanner, Spanner-RSS, and a PO-serializable
   store. Reproduces Table 1 empirically: which invariants hold, which
   anomalies occur.

   Run with: dune exec examples/photo_sharing.exe *)

let () =
  Fmt.pr "Photo-sharing app over three consistency models (Table 1).@.";
  Fmt.pr "Each cell is violations/checks (invariants) or anomalies/trials.@.@.";
  let seeds = [ 11; 12; 13; 14; 15; 16 ] in
  let rounds = 50 in
  let rows = List.map (Photoapp.App.run_store ~seeds ~rounds) [ `Strict; `Rss; `Po ] in
  Fmt.pr "  %-18s %10s %10s %12s %12s@." "store" "I1" "I2" "A2 (stale)" "A3 (relayed)";
  List.iter
    (fun (name, t) ->
      Fmt.pr "  %-18s %6d/%-4d %6d/%-4d %7d/%-4d %7d/%-4d@." name
        t.Photoapp.App.i1_violations t.Photoapp.App.i1_checks
        t.Photoapp.App.i2_violations t.Photoapp.App.i2_checks
        t.Photoapp.App.a2_anomalies t.Photoapp.App.a2_trials
        t.Photoapp.App.a3_anomalies t.Photoapp.App.a3_trials)
    rows;
  Fmt.pr "@.Reading: strict serializability prevents everything; RSS keeps@.";
  Fmt.pr "every invariant and A2, allowing only brief A3 windows;@.";
  Fmt.pr "PO serializability breaks the cross-service invariant I2 and A2.@."
