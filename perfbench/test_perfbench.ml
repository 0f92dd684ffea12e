(* Tests of the benchmark's own arithmetic and of its two run forms: the
   plain driver call and the instrumented assembly must execute the same
   seeded schedule and count the same ops. *)

open Perfbench

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)
let float_eq = Alcotest.testable (Fmt.float_dfrac 12) close

let raises f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* {2 Order statistics} *)

let test_median () =
  Alcotest.(check float_eq) "odd" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check float_eq) "even" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check float_eq) "one" 7.0 (Stat.median [ 7.0 ]);
  Alcotest.(check bool) "empty raises" true (raises (fun () -> Stat.median []))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let cases =
    [
      (List.init 10 (fun i -> float_of_int (i + 1)), (2.75, 5.5, 8.25));
      ([ 1.0; 2.0 ], (0.75, 1.5, 2.25));
      ([ 3.5; 1.25; 9.0 ], (1.25, 3.5, 9.0));
      ( [ 0.31; 0.29; 0.35; 0.30; 0.33; 0.28; 0.36; 0.32; 0.34; 0.30 ],
        (0.2975, 0.315, 0.3425) );
    ]
  in
  List.iter
    (fun (xs, (e1, e2, e3)) ->
      let q1, q2, q3 = Stat.quartiles xs in
      Alcotest.(check float_eq) "q1" e1 q1;
      Alcotest.(check float_eq) "q2" e2 q2;
      Alcotest.(check float_eq) "q3" e3 q3;
      Alcotest.(check float_eq) "q2 is the median" (Stat.median xs) q2)
    cases;
  Alcotest.(check bool) "one value raises" true (raises (fun () -> Stat.quartiles [ 1.0 ]));
  Alcotest.(check float_eq) "spread" 1.0
    (Stat.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check float_eq) "constant spread" 0.0 (Stat.spread [ 4.0; 4.0; 4.0 ])

(* {2 The tail rule} *)

let test_tail_rule () =
  let ok count permille = Stat.tail_ok ~count ~permille in
  Alcotest.(check bool) "p99.9 at 10000" true (ok 10_000 999);
  Alcotest.(check bool) "p99.9 at 9999" false (ok 9_999 999);
  Alcotest.(check bool) "p99 at 1000" true (ok 1_000 990);
  Alcotest.(check bool) "p99 at 999" false (ok 999 990);
  Alcotest.(check bool) "p50 at 20" true (ok 20 500);
  Alcotest.(check bool) "p50 at 19" false (ok 19 500);
  Alcotest.(check bool) "p100 never" false (ok 1_000_000 1000);
  Alcotest.(check bool) "out of range raises" true (raises (fun () -> ok 10 1001))

(* {2 Names} *)

let test_names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Stat.valid_name s))
    [ "sim_p999_ms"; "engine.self_ns_per_event"; "gryff-wan-chaos"; "0a";
      String.make 64 'x' ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S" s) false (Stat.valid_name s))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "p99.9%"; String.make 65 'x' ];
  let names =
    List.map fst Stat.end_to_end @ List.map fst Stat.per_layer
    @ List.map Workloads.name Workloads.all
  in
  List.iter (fun n -> Alcotest.(check bool) n true (Stat.valid_name n)) names;
  Alcotest.(check int) "names are unique"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* BENCHMARK.json lists exactly the workloads and metrics printed here. *)
let test_benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = match Obs.Json.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let field k j =
    match Obs.Json.member k j with Some v -> v | None -> Alcotest.fail ("no " ^ k)
  in
  let arr k j = Option.get (Obs.Json.to_arr (field k j)) in
  let str k j = Option.get (Obs.Json.to_str (field k j)) in
  let names_units k = List.map (fun m -> (str "name" m, str "unit" m)) (arr k j) in
  Alcotest.(check (list (pair string string))) "end_to_end" Stat.end_to_end
    (names_units "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Stat.per_layer
    (names_units "per_layer");
  Alcotest.(check (list string)) "workloads"
    (List.map Workloads.name Workloads.all)
    (List.map (str "name") (arr "workloads" j));
  let bounds =
    List.map
      (fun m -> (str "name" m, Option.get (Obs.Json.to_num (field "bound" m))))
      (arr "end_to_end" j)
  in
  List.iter
    (fun (n, b) -> Alcotest.(check bool) (n ^ " bound in (0, 0.25]") true (b > 0.0 && b <= 0.25))
    bounds;
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun (_, b) -> b <= List.assoc "setup_s" bounds) bounds)

(* {2 Failed-op accounting} *)

let test_failed_accounting () =
  Alcotest.(check int) "pass" 3 (Stat.failed ~attempted:10 ~completed:7 ~pass:true);
  Alcotest.(check int) "not pass: all failed" 10
    (Stat.failed ~attempted:10 ~completed:10 ~pass:false);
  Alcotest.(check float_eq) "frac" 0.25
    (Stat.failed_frac ~attempted:8 ~completed:6 ~pass:true);
  Alcotest.(check bool) "completed > attempted raises" true
    (raises (fun () -> Stat.failed ~attempted:1 ~completed:2 ~pass:true));
  Alcotest.(check bool) "nothing attempted raises" true
    (raises (fun () -> Stat.failed_frac ~attempted:0 ~completed:0 ~pass:true));
  let counter = function
    | "read.count" -> 5 | "write.count" -> 7 | "rmw.count" -> 1
    | "rw.committed" -> 11 | "ro.count" -> 13 | "flow.abandoned" -> 2
    | _ -> 1000
  in
  Alcotest.(check int) "gryff attempts" 13 (Stat.attempted Stat.Gryff counter);
  Alcotest.(check int) "spanner attempts" 26 (Stat.attempted Stat.Spanner counter)

(* {2 The two run forms} *)

(* Short enough to keep the suite fast; the invariants hold at any size. *)
let short = function
  | Workloads.Spanner_dc -> 0.2
  | Workloads.Gryff_dc_batched -> 0.1
  | Workloads.Spanner_wan -> 1.0
  | Workloads.Gryff_wan_chaos -> 6.0

let harness_fingerprint w ~seed =
  let duration_s = short w in
  let chaos = Workloads.chaos ~duration_s w ~seed in
  let r = Workloads.harness ~duration_s w ~seed ~chaos in
  (r, Workloads.fingerprint_of_run w r)

let test_forms_agree w () =
  let seed = 3 and duration_s = short w in
  let r, fp = harness_fingerprint w ~seed in
  Alcotest.(check bool) "driver verdict is Pass" true (Harness.Run.passed r);
  let chaos = Workloads.chaos ~duration_s w ~seed in
  (* Plain assembly, then the fully instrumented one: both reproduce the
     driver's counts, and the instrumented one counts the same ops. *)
  let plain_led = Workloads.new_ledger () in
  let plain =
    Workloads.run_assembled
      (Workloads.assemble ~duration_s w ~seed ~chaos Workloads.plain plain_led)
  in
  Alcotest.(check string) "plain assembly = driver" fp
    (Workloads.fingerprint_of_outcome w plain);
  let led = Workloads.new_ledger () in
  let a =
    Workloads.assemble ~duration_s w ~seed ~chaos
      { Workloads.plain with Workloads.tracer = Obs.Trace.create () }
      led
  in
  Workloads.run_attributed a led;
  let o = a.Workloads.settle () in
  Alcotest.(check string) "instrumented assembly = driver" fp
    (Workloads.fingerprint_of_outcome w o);
  let counter = Harness.Run.counter r in
  let attempted = Stat.attempted (Workloads.protocol w) counter in
  let completed = Workloads.completed_of_history r.Harness.Run.records in
  Alcotest.(check int) "issued ops = protocol attempts" attempted led.Workloads.issued;
  Alcotest.(check int) "finished ops = history responses" completed
    led.Workloads.completed;
  Alcotest.(check int) "one record hook per history record"
    (Workloads.n_history r.Harness.Run.records)
    led.Workloads.hook_calls;
  Alcotest.(check int) "one sample per issued op" led.Workloads.issued
    led.Workloads.sample_calls;
  if Workloads.fault_free w then
    Alcotest.(check int) "no failed ops" 0
      (Stat.failed ~attempted ~completed ~pass:true);
  (* Another seed: still correct, different inputs. *)
  let r', fp' = harness_fingerprint w ~seed:(seed + 1) in
  Alcotest.(check bool) "second seed passes" true (Harness.Run.passed r');
  Alcotest.(check bool) "second seed changes the fingerprint" true (fp <> fp')

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "metric-name grammar" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
          Alcotest.test_case "failed-op accounting" `Quick test_failed_accounting;
        ] );
      ( "forms",
        List.map
          (fun w ->
            Alcotest.test_case
              (Workloads.name w ^ " driver and assembly agree")
              `Quick (test_forms_agree w))
          Workloads.all );
    ]
